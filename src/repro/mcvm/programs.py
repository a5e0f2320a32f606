"""Q4 benchmark programs (paper Section 5.1).

The three ODE solvers come from Recktenwald's *Numerical Methods with
MATLAB* — they solve an ordinary differential equation for heat-treating
simulation with the Euler, midpoint and Runge-Kutta methods — and
``sim_anl`` minimizes the six-hump camelback function by simulated
annealing.  All four take the function to integrate/minimize as a
``feval`` target inside their hot loop, which is exactly the pattern the
feval optimizer specializes.

Each benchmark has two sources: the feval version and the "direct by
hand" version in which every ``feval`` call was replaced with a direct
call — the paper's upper-bound configuration (Table 4, last column).
"""

from __future__ import annotations

from typing import Dict, NamedTuple

#: the ODE right-hand side: heat treating (Newton cooling toward 20 C)
_RHS = """
function dydt = rhsHeat(t, y)
  dydt = -0.25 * (y - 20.0);
end
"""

ODE_EULER = _RHS + """
function w = odeEuler(diffeq, tn, h, y0)
  t = 0.0;
  w = y0;
  while t < tn
    w = w + h * feval(diffeq, t, w);
    t = t + h;
  end
end

function r = benchmark(steps)
  h = 0.001;
  r = odeEuler(@rhsHeat, steps * h, h, 80.0);
end
"""

ODE_EULER_DIRECT = _RHS + """
function w = odeEuler(diffeq, tn, h, y0)
  t = 0.0;
  w = y0;
  while t < tn
    w = w + h * rhsHeat(t, w);
    t = t + h;
  end
end

function r = benchmark(steps)
  h = 0.001;
  r = odeEuler(@rhsHeat, steps * h, h, 80.0);
end
"""

ODE_MIDPT = _RHS + """
function w = odeMidpt(diffeq, tn, h, y0)
  t = 0.0;
  w = y0;
  h2 = h / 2.0;
  while t < tn
    k1 = feval(diffeq, t, w);
    k2 = feval(diffeq, t + h2, w + h2 * k1);
    w = w + h * k2;
    t = t + h;
  end
end

function r = benchmark(steps)
  h = 0.001;
  r = odeMidpt(@rhsHeat, steps * h, h, 80.0);
end
"""

ODE_MIDPT_DIRECT = _RHS + """
function w = odeMidpt(diffeq, tn, h, y0)
  t = 0.0;
  w = y0;
  h2 = h / 2.0;
  while t < tn
    k1 = rhsHeat(t, w);
    k2 = rhsHeat(t + h2, w + h2 * k1);
    w = w + h * k2;
    t = t + h;
  end
end

function r = benchmark(steps)
  h = 0.001;
  r = odeMidpt(@rhsHeat, steps * h, h, 80.0);
end
"""

ODE_RK4 = _RHS + """
function w = odeRK4(diffeq, tn, h, y0)
  t = 0.0;
  w = y0;
  h2 = h / 2.0;
  h6 = h / 6.0;
  while t < tn
    k1 = feval(diffeq, t, w);
    k2 = feval(diffeq, t + h2, w + h2 * k1);
    k3 = feval(diffeq, t + h2, w + h2 * k2);
    k4 = feval(diffeq, t + h, w + h * k3);
    w = w + h6 * (k1 + 2.0 * k2 + 2.0 * k3 + k4);
    t = t + h;
  end
end

function r = benchmark(steps)
  h = 0.001;
  r = odeRK4(@rhsHeat, steps * h, h, 80.0);
end
"""

ODE_RK4_DIRECT = _RHS + """
function w = odeRK4(diffeq, tn, h, y0)
  t = 0.0;
  w = y0;
  h2 = h / 2.0;
  h6 = h / 6.0;
  while t < tn
    k1 = rhsHeat(t, w);
    k2 = rhsHeat(t + h2, w + h2 * k1);
    k3 = rhsHeat(t + h2, w + h2 * k2);
    k4 = rhsHeat(t + h, w + h * k3);
    w = w + h6 * (k1 + 2.0 * k2 + 2.0 * k3 + k4);
    t = t + h;
  end
end

function r = benchmark(steps)
  h = 0.001;
  r = odeRK4(@rhsHeat, steps * h, h, 80.0);
end
"""

_CAMELBACK = """
function y = camelback(x1, x2)
  y = (4.0 - 2.1*x1^2 + (x1^4)/3.0)*x1^2 + x1*x2 + (-4.0 + 4.0*x2^2)*x2^2;
end
"""

SIM_ANL = _CAMELBACK + """
function fb = sim_anl(f, maxiter)
  seed = 12345.0;
  bx1 = 0.5;
  bx2 = 0.5;
  fb = feval(f, bx1, bx2);
  cx1 = bx1;
  cx2 = bx2;
  fc = fb;
  T = 1.0;
  i = 0.0;
  while i < maxiter
    seed = mod(seed * 1103.0 + 12345.0, 2147483.0);
    r1 = seed / 2147483.0;
    seed = mod(seed * 1103.0 + 12345.0, 2147483.0);
    r2 = seed / 2147483.0;
    nx1 = cx1 + (r1 - 0.5) * T;
    nx2 = cx2 + (r2 - 0.5) * T;
    fn = feval(f, nx1, nx2);
    if fn < fc
      cx1 = nx1;
      cx2 = nx2;
      fc = fn;
      if fn < fb
        bx1 = nx1;
        bx2 = nx2;
        fb = fn;
      end
    else
      seed = mod(seed * 1103.0 + 12345.0, 2147483.0);
      r3 = seed / 2147483.0;
      if r3 < exp((fc - fn) / T)
        cx1 = nx1;
        cx2 = nx2;
        fc = fn;
      end
    end
    T = T * 0.9995;
    i = i + 1.0;
  end
end

function r = benchmark(steps)
  r = sim_anl(@camelback, steps);
end
"""

SIM_ANL_DIRECT = _CAMELBACK + """
function fb = sim_anl(f, maxiter)
  seed = 12345.0;
  bx1 = 0.5;
  bx2 = 0.5;
  fb = camelback(bx1, bx2);
  cx1 = bx1;
  cx2 = bx2;
  fc = fb;
  T = 1.0;
  i = 0.0;
  while i < maxiter
    seed = mod(seed * 1103.0 + 12345.0, 2147483.0);
    r1 = seed / 2147483.0;
    seed = mod(seed * 1103.0 + 12345.0, 2147483.0);
    r2 = seed / 2147483.0;
    nx1 = cx1 + (r1 - 0.5) * T;
    nx2 = cx2 + (r2 - 0.5) * T;
    fn = camelback(nx1, nx2);
    if fn < fc
      cx1 = nx1;
      cx2 = nx2;
      fc = fn;
      if fn < fb
        bx1 = nx1;
        bx2 = nx2;
        fb = fn;
      end
    else
      seed = mod(seed * 1103.0 + 12345.0, 2147483.0);
      r3 = seed / 2147483.0;
      if r3 < exp((fc - fn) / T)
        cx1 = nx1;
        cx2 = nx2;
        fc = fn;
      end
    end
    T = T * 0.9995;
    i = i + 1.0;
  end
end

function r = benchmark(steps)
  r = sim_anl(@camelback, steps)
end
"""


class McBenchmark(NamedTuple):
    name: str           #: paper's benchmark name
    source: str         #: feval version
    direct_source: str  #: feval replaced by hand with direct calls
    entry: str          #: entry function (takes a step count)
    steps: int          #: standard workload
    hot_function: str   #: the function containing the feval loop


Q4_BENCHMARKS: Dict[str, McBenchmark] = {
    "odeEuler": McBenchmark(
        "odeEuler", ODE_EULER, ODE_EULER_DIRECT, "benchmark", 25000,
        "odeEuler",
    ),
    "odeMidpt": McBenchmark(
        "odeMidpt", ODE_MIDPT, ODE_MIDPT_DIRECT, "benchmark", 15000,
        "odeMidpt",
    ),
    "odeRK4": McBenchmark(
        "odeRK4", ODE_RK4, ODE_RK4_DIRECT, "benchmark", 10000,
        "odeRK4",
    ),
    "sim_anl": McBenchmark(
        "sim_anl", SIM_ANL, SIM_ANL_DIRECT, "benchmark", 12000,
        "sim_anl",
    ),
}


def q4_order():
    """Table 4 row order."""
    return [Q4_BENCHMARKS[n] for n in ("odeEuler", "odeMidpt", "odeRK4",
                                       "sim_anl")]
