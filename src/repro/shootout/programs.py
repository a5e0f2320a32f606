"""The shootout benchmark suite (paper Table 1), in mini-C.

Eight programs from the Computer Language Benchmarks Game, restructured
the way the paper uses them: single-threaded, no external libraries, and
producing a checksum return value instead of writing to stdout (our VM is
a simulator; checksums make correctness machine-checkable).  Four of them
carry a ``large`` workload like the paper's ``*-large`` variants.

Workload sizes are scaled to the Python-JIT substrate (the paper's
absolute iteration counts would take hours under simulation); the *loop
structure* — which is what OSR point placement and the Q1-Q3 overhead
questions exercise — is preserved.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple


class Benchmark(NamedTuple):
    name: str                    #: paper's benchmark name
    description: str             #: Table 1 description
    source: str                  #: mini-C source
    entry: str                   #: entry function
    args: Tuple[int, ...]        #: standard workload
    large_args: Optional[Tuple[int, ...]]  #: the paper's -large variant
    expected: Dict[Tuple[int, ...], object]  #: workload -> checksum
    q1_functions: Tuple[str, ...]  #: hottest-loop OSR sites (Q1/Q3)
    q2_function: str             #: per-iteration method instrumented in Q2
    pattern: str                 #: 'iterative' | 'recursive'


# ---------------------------------------------------------------------------
# b-trees — adaptation of a GC bench for binary trees (recursive pattern)
# ---------------------------------------------------------------------------

B_TREES = r"""
long check_tree(long **node) {
    if (node[0] == 0) return 1;
    return 1 + check_tree((long **)node[0]) + check_tree((long **)node[1]);
}

long **make_tree(long depth) {
    long **node = (long **)malloc(16);
    if (depth > 0) {
        node[0] = (long *)make_tree(depth - 1);
        node[1] = (long *)make_tree(depth - 1);
    } else {
        node[0] = 0;
        node[1] = 0;
    }
    return node;
}

void free_tree(long **node) {
    if (node[0] != 0) {
        free_tree((long **)node[0]);
        free_tree((long **)node[1]);
    }
    free((char *)node);
}

long btrees(long max_depth) {
    long min_depth = 4;
    long total = 0;
    long **stretch = make_tree(max_depth + 1);
    total += check_tree(stretch);
    free_tree(stretch);
    long **long_lived = make_tree(max_depth);
    for (long depth = min_depth; depth <= max_depth; depth += 2) {
        long iterations = 1 << (max_depth - depth + min_depth);
        for (long i = 0; i < iterations; i++) {
            long **t = make_tree(depth);
            total += check_tree(t);
            free_tree(t);
        }
    }
    total += check_tree(long_lived);
    free_tree(long_lived);
    return total;
}
"""

# ---------------------------------------------------------------------------
# fannkuch — flips of permutations
# ---------------------------------------------------------------------------

FANNKUCH = r"""
long fannkuch_flips(long *perm, long *perm1, long n) {
    for (long i = 0; i < n; i++) perm[i] = perm1[i];
    long flips = 0;
    long k = perm[0];
    while (k != 0) {
        long lo = 0;
        long hi = k;
        while (lo < hi) {
            long tmp = perm[lo];
            perm[lo] = perm[hi];
            perm[hi] = tmp;
            lo++;
            hi--;
        }
        flips++;
        k = perm[0];
    }
    return flips;
}

long fannkuch(long n) {
    long perm[16];
    long perm1[16];
    long count[16];
    long max_flips = 0;
    long checksum = 0;
    long perm_count = 0;
    long i;
    for (i = 0; i < n; i++) perm1[i] = i;
    long r = n;
    while (1) {
        while (r != 1) { count[r - 1] = r; r--; }
        long flips = fannkuch_flips(perm, perm1, n);
        if (flips > max_flips) max_flips = flips;
        if (perm_count % 2 == 0) checksum += flips;
        else checksum -= flips;
        while (1) {
            if (r == n) {
                return checksum * 1000 + max_flips;
            }
            long first = perm1[0];
            for (i = 0; i < r; i++) perm1[i] = perm1[i + 1];
            perm1[r] = first;
            count[r] = count[r] - 1;
            if (count[r] > 0) break;
            r++;
        }
        perm_count++;
    }
    return 0;
}
"""

# ---------------------------------------------------------------------------
# fasta — weighted random DNA sequence generation
# ---------------------------------------------------------------------------

FASTA = r"""
long fasta_seed = 42;

long fasta_pick(long *cum, long *codes, long pick) {
    long j = 0;
    while (cum[j] <= pick) j++;
    return codes[j];
}

long fasta(long n) {
    /* cumulative probabilities scaled by 139968 (the LCG modulus) */
    long cum[15];
    long codes[15];
    cum[0] = 38190; codes[0] = 'a';
    cum[1] = 54734; codes[1] = 'c';
    cum[2] = 70226; codes[2] = 'g';
    cum[3] = 108418; codes[3] = 't';
    cum[4] = 111218; codes[4] = 'B';
    cum[5] = 114018; codes[5] = 'D';
    cum[6] = 116818; codes[6] = 'H';
    cum[7] = 119618; codes[7] = 'K';
    cum[8] = 122418; codes[8] = 'M';
    cum[9] = 125218; codes[9] = 'N';
    cum[10] = 128018; codes[10] = 'R';
    cum[11] = 130818; codes[11] = 'S';
    cum[12] = 133618; codes[12] = 'V';
    cum[13] = 136418; codes[13] = 'W';
    cum[14] = 139968; codes[14] = 'Y';
    long checksum = 0;
    for (long i = 0; i < n; i++) {
        fasta_seed = (fasta_seed * 3877 + 29573) % 139968;
        long code = fasta_pick(cum, codes, fasta_seed);
        checksum = (checksum * 31 + code) % 1000000007;
    }
    return checksum;
}
"""

# ---------------------------------------------------------------------------
# fasta-redux — same generation through a precomputed lookup table
# ---------------------------------------------------------------------------

FASTA_REDUX = r"""
long fasta_redux_seed = 42;

long fasta_redux_pick(long *cum, long *codes, long *lookup, long pick) {
    long k = lookup[pick * 4096 / 139968];
    while (cum[k] <= pick) k++;
    return codes[k];
}

long fasta_redux(long n) {
    long cum[15];
    long codes[15];
    cum[0] = 38190; codes[0] = 'a';
    cum[1] = 54734; codes[1] = 'c';
    cum[2] = 70226; codes[2] = 'g';
    cum[3] = 108418; codes[3] = 't';
    cum[4] = 111218; codes[4] = 'B';
    cum[5] = 114018; codes[5] = 'D';
    cum[6] = 116818; codes[6] = 'H';
    cum[7] = 119618; codes[7] = 'K';
    cum[8] = 122418; codes[8] = 'M';
    cum[9] = 125218; codes[9] = 'N';
    cum[10] = 128018; codes[10] = 'R';
    cum[11] = 130818; codes[11] = 'S';
    cum[12] = 133618; codes[12] = 'V';
    cum[13] = 136418; codes[13] = 'W';
    cum[14] = 139968; codes[14] = 'Y';
    /* lookup table: 4096 buckets over the LCG range */
    long lookup[4096];
    long j = 0;
    for (long b = 0; b < 4096; b++) {
        long threshold = (b + 1) * 139968 / 4096;
        while (cum[j] < threshold && j < 14) j++;
        lookup[b] = j;
    }
    long checksum = 0;
    for (long i = 0; i < n; i++) {
        fasta_redux_seed = (fasta_redux_seed * 3877 + 29573) % 139968;
        long code = fasta_redux_pick(cum, codes, lookup, fasta_redux_seed);
        checksum = (checksum * 31 + code) % 1000000007;
    }
    return checksum;
}
"""

# ---------------------------------------------------------------------------
# mbrot — Mandelbrot set generation
# ---------------------------------------------------------------------------

MBROT = r"""
long mbrot_pixel(double cr, double ci) {
    double zr = 0.0;
    double zi = 0.0;
    long i = 0;
    long escaped = 0;
    while (i < 50 && !escaped) {
        double new_zr = zr * zr - zi * zi + cr;
        zi = 2.0 * zr * zi + ci;
        zr = new_zr;
        if (zr * zr + zi * zi > 4.0) escaped = 1;
        i++;
    }
    if (escaped) return 0;
    return 1;
}

long mbrot(long size) {
    long bits = 0;
    for (long y = 0; y < size; y++) {
        for (long x = 0; x < size; x++) {
            double cr = 2.0 * (double)x / (double)size - 1.5;
            double ci = 2.0 * (double)y / (double)size - 1.0;
            bits += mbrot_pixel(cr, ci);
        }
    }
    return bits;
}
"""

# ---------------------------------------------------------------------------
# n-body — N-body simulation of Jovian planets
# ---------------------------------------------------------------------------

N_BODY = r"""
double nbody_energy(double *x, double *y, double *z,
                    double *vx, double *vy, double *vz, double *m) {
    double e = 0.0;
    for (long i = 0; i < 5; i++) {
        e += 0.5 * m[i] * (vx[i]*vx[i] + vy[i]*vy[i] + vz[i]*vz[i]);
        for (long j = i + 1; j < 5; j++) {
            double dx = x[i] - x[j];
            double dy = y[i] - y[j];
            double dz = z[i] - z[j];
            e -= m[i] * m[j] / sqrt(dx*dx + dy*dy + dz*dz);
        }
    }
    return e;
}

void nbody_advance(double *x, double *y, double *z,
                   double *vx, double *vy, double *vz, double *m,
                   double dt) {
    for (long i = 0; i < 5; i++) {
        for (long j = i + 1; j < 5; j++) {
            double dx = x[i] - x[j];
            double dy = y[i] - y[j];
            double dz = z[i] - z[j];
            double d2 = dx*dx + dy*dy + dz*dz;
            double mag = dt / (d2 * sqrt(d2));
            vx[i] -= dx * m[j] * mag;
            vy[i] -= dy * m[j] * mag;
            vz[i] -= dz * m[j] * mag;
            vx[j] += dx * m[i] * mag;
            vy[j] += dy * m[i] * mag;
            vz[j] += dz * m[i] * mag;
        }
    }
    for (long i = 0; i < 5; i++) {
        x[i] += dt * vx[i];
        y[i] += dt * vy[i];
        z[i] += dt * vz[i];
    }
}

double nbody(long steps) {
    double x[5]; double y[5]; double z[5];
    double vx[5]; double vy[5]; double vz[5];
    double m[5];
    double pi = 3.141592653589793;
    double solar_mass = 4.0 * pi * pi;
    double days = 365.24;
    /* sun */
    x[0]=0.0; y[0]=0.0; z[0]=0.0; vx[0]=0.0; vy[0]=0.0; vz[0]=0.0;
    m[0]=solar_mass;
    /* jupiter */
    x[1]=4.84143144246472090; y[1]=-1.16032004402742839;
    z[1]=-0.103622044471123109;
    vx[1]=0.00166007664274403694*days; vy[1]=0.00769901118419740425*days;
    vz[1]=-0.0000690460016972063023*days;
    m[1]=0.000954791938424326609*solar_mass;
    /* saturn */
    x[2]=8.34336671824457987; y[2]=4.12479856412430479;
    z[2]=-0.403523417114321381;
    vx[2]=-0.00276742510726862411*days; vy[2]=0.00499852801234917238*days;
    vz[2]=0.0000230417297573763929*days;
    m[2]=0.000285885980666130812*solar_mass;
    /* uranus */
    x[3]=12.8943695621391310; y[3]=-15.1111514016986312;
    z[3]=-0.223307578892655734;
    vx[3]=0.00296460137564761618*days; vy[3]=0.00237847173959480950*days;
    vz[3]=-0.0000296589568540237556*days;
    m[3]=0.0000436624404335156298*solar_mass;
    /* neptune */
    x[4]=15.3796971148509165; y[4]=-25.9193146099879641;
    z[4]=0.179258772950371181;
    vx[4]=0.00268067772490389322*days; vy[4]=0.00162824170038242295*days;
    vz[4]=-0.0000951592254519715870*days;
    m[4]=0.0000515138902046611451*solar_mass;
    /* offset sun momentum */
    double px = 0.0; double py = 0.0; double pz = 0.0;
    for (long i = 0; i < 5; i++) {
        px += vx[i] * m[i]; py += vy[i] * m[i]; pz += vz[i] * m[i];
    }
    vx[0] = -px / solar_mass; vy[0] = -py / solar_mass; vz[0] = -pz / solar_mass;
    double e0 = nbody_energy(x, y, z, vx, vy, vz, m);
    for (long s = 0; s < steps; s++) {
        nbody_advance(x, y, z, vx, vy, vz, m, 0.01);
    }
    double e1 = nbody_energy(x, y, z, vx, vy, vz, m);
    return e0 * 1000000.0 + e1;
}
"""

# ---------------------------------------------------------------------------
# rev-comp — reverse complement of DNA sequences
# ---------------------------------------------------------------------------

REV_COMP = r"""
long revcomp_seed = 12345;

char complement(char *table, char c) {
    return table[c];
}

long revcomp(long n) {
    char table[128];
    for (long t = 0; t < 128; t++) table[t] = 'N';
    table['A'] = 'T'; table['T'] = 'A';
    table['C'] = 'G'; table['G'] = 'C';
    table['a'] = 'T'; table['t'] = 'A';
    table['c'] = 'G'; table['g'] = 'C';
    table['U'] = 'A'; table['u'] = 'A';
    char bases[4];
    bases[0] = 'A'; bases[1] = 'C'; bases[2] = 'G'; bases[3] = 'T';
    char *seq = malloc(n);
    for (long i = 0; i < n; i++) {
        revcomp_seed = (revcomp_seed * 3877 + 29573) % 139968;
        seq[i] = bases[revcomp_seed % 4];
    }
    /* reverse-complement in place */
    long lo = 0;
    long hi = n - 1;
    while (lo < hi) {
        char c1 = complement(table, seq[lo]);
        char c2 = complement(table, seq[hi]);
        seq[lo] = c2;
        seq[hi] = c1;
        lo++;
        hi--;
    }
    if (lo == hi) seq[lo] = complement(table, seq[lo]);
    long checksum = 0;
    for (long i = 0; i < n; i++) {
        checksum = (checksum * 31 + seq[i]) % 1000000007;
    }
    free(seq);
    return checksum;
}
"""

# ---------------------------------------------------------------------------
# sp-norm — eigenvalue via the power method
# ---------------------------------------------------------------------------

SP_NORM = r"""
double spnorm_a(long i, long j) {
    return 1.0 / (double)((i + j) * (i + j + 1) / 2 + i + 1);
}

void spnorm_av(double *x, double *y, long n) {
    for (long i = 0; i < n; i++) {
        double sum = 0.0;
        for (long j = 0; j < n; j++) sum += spnorm_a(i, j) * x[j];
        y[i] = sum;
    }
}

void spnorm_atv(double *x, double *y, long n) {
    for (long i = 0; i < n; i++) {
        double sum = 0.0;
        for (long j = 0; j < n; j++) sum += spnorm_a(j, i) * x[j];
        y[i] = sum;
    }
}

void spnorm_atav(double *x, double *y, double *t, long n) {
    spnorm_av(x, t, n);
    spnorm_atv(t, y, n);
}

double spnorm(long n) {
    double *u = (double *)malloc(n * 8);
    double *v = (double *)malloc(n * 8);
    double *t = (double *)malloc(n * 8);
    for (long i = 0; i < n; i++) u[i] = 1.0;
    for (long i = 0; i < 10; i++) {
        spnorm_atav(u, v, t, n);
        spnorm_atav(v, u, t, n);
    }
    double vbv = 0.0;
    double vv = 0.0;
    for (long i = 0; i < n; i++) {
        vbv += u[i] * v[i];
        vv += v[i] * v[i];
    }
    free((char *)u);
    free((char *)v);
    free((char *)t);
    return sqrt(vbv / vv);
}
"""


#: the full suite, keyed by paper benchmark name.  Expected checksums were
#: captured from the reference interpreter and act as regression oracles.
SUITE: Dict[str, Benchmark] = {}


def _register(benchmark: Benchmark) -> None:
    SUITE[benchmark.name] = benchmark


_register(Benchmark(
    name="b-trees",
    description="Adaptation of a GC bench for binary trees",
    source=B_TREES, entry="btrees",
    args=(7,), large_args=(9,),
    expected={(7,): 8798, (9,): 51550},
    q1_functions=("check_tree",), q2_function="check_tree",
    pattern="recursive",
))
_register(Benchmark(
    name="fannkuch",
    description="Fannkuch benchmark on permutations",
    source=FANNKUCH, entry="fannkuch",
    args=(7,), large_args=None,
    expected={(7,): 228016},
    q1_functions=("fannkuch_flips",), q2_function="fannkuch_flips",
    pattern="iterative",
))
_register(Benchmark(
    name="fasta",
    description="Generation of DNA sequences",
    source=FASTA, entry="fasta",
    args=(30000,), large_args=None,
    expected={(30000,): 469192314},
    q1_functions=("fasta",), q2_function="fasta_pick",
    pattern="iterative",
))
_register(Benchmark(
    name="fasta-redux",
    description="Generation of DNA sequences (with lookup table)",
    source=FASTA_REDUX, entry="fasta_redux",
    args=(30000,), large_args=None,
    expected={(30000,): 137661319},
    q1_functions=("fasta_redux",), q2_function="fasta_redux_pick",
    pattern="iterative",
))
_register(Benchmark(
    name="mbrot",
    description="Mandelbrot set generation",
    source=MBROT, entry="mbrot",
    args=(40,), large_args=(64,),
    expected={(40,): 633, (64,): 1626},
    q1_functions=("mbrot_pixel",), q2_function="mbrot_pixel",
    pattern="iterative",
))
_register(Benchmark(
    name="n-body",
    description="N-body simulation of Jovian planets",
    source=N_BODY, entry="nbody",
    args=(1500,), large_args=(4000,),
    expected={(1500,): -169075.3328380587, (4000,): -169075.3328406311},
    q1_functions=("nbody_advance",), q2_function="nbody_advance",
    pattern="iterative",
))
_register(Benchmark(
    name="rev-comp",
    description="Reverse-complement of DNA sequences",
    source=REV_COMP, entry="revcomp",
    args=(30000,), large_args=None,
    expected={(30000,): 658884467},
    q1_functions=("revcomp",), q2_function="complement",
    pattern="iterative",
))
_register(Benchmark(
    name="sp-norm",
    description="Eigenvalue calculation with power method",
    source=SP_NORM, entry="spnorm",
    args=(28,), large_args=(56,),
    expected={(28,): 1.2740707688760662, (56,): 1.2742021739342595},
    q1_functions=("spnorm_av", "spnorm_atv"), q2_function="spnorm_a",
    pattern="iterative",
))
