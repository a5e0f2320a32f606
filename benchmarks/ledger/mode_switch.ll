; The backward (deopt) half of the osr_transition workload.  %mode picks
; one of four loop bodies; under tier="speculative" a run of calls with
; one mode specializes the loop to that arm behind a guard, and the first
; call with another mode fails the guard mid-entry and OSR-exits to the
; baseline version.
define i64 @mode_switch(i64 %mode, i64 %n) {
entry:
  br label %head
head:
  %i = phi i64 [ 0, %entry ], [ %i.next, %latch ]
  %sum = phi i64 [ 0, %entry ], [ %sum.next, %latch ]
  %is.add = icmp eq i64 %mode, 1
  br i1 %is.add, label %add, label %try.double
try.double:
  %is.double = icmp eq i64 %mode, 2
  br i1 %is.double, label %double, label %try.square
try.square:
  %is.square = icmp eq i64 %mode, 3
  br i1 %is.square, label %square, label %mix
add:
  %a = add i64 %sum, %i
  br label %latch
double:
  %d0 = shl i64 %i, 1
  %d = add i64 %sum, %d0
  br label %latch
square:
  %s0 = mul i64 %i, %i
  %s = add i64 %sum, %s0
  br label %latch
mix:
  %m0 = xor i64 %sum, %i
  %m = add i64 %m0, %mode
  br label %latch
latch:
  %sum.next = phi i64 [ %a, %add ], [ %d, %double ], [ %s, %square ], [ %m, %mix ]
  %i.next = add i64 %i, 1
  %more = icmp slt i64 %i.next, %n
  br i1 %more, label %head, label %exit
exit:
  ret i64 %sum.next
}
