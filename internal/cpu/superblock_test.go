package cpu

// Trace-severing tests: the superblock validity contract of DESIGN.md
// §10. A fused trace may only run while every constituent block's
// generation cell is unmoved; these tests drive the three severing
// routes — a same-core guest store into a fused page, a cross-core
// patch landing between trace entries, and state restore — and pin the
// behaviour under `-race` along with the rest of the suite.

import (
	"testing"

	"camouflage/internal/asm"
	"camouflage/internal/insn"
)

// TestStoreIntoFusedTraceSevers: a loop runs hot enough to fuse into a
// looping trace, then the program patches the loop body and re-enters
// it. The stale trace (and the blocks under it) must be dropped so the
// re-entry executes the patched instruction.
func TestStoreIntoFusedTraceSevers(t *testing.T) {
	patch := insn.MOVZ(insn.X0, 7, 0).Encode()
	c := runSnippet(t, nil, func(a *asm.Assembler) {
		a.I(insn.MOVZ(insn.X5, 64, 0))
		a.Label("loop")
		a.I(insn.MOVZ(insn.X0, 1, 0)) // body: patched on the second pass
		a.I(insn.SUBi(insn.X5, insn.X5, 1))
		a.CBNZ(insn.X5, "loop")
		a.CBNZ(insn.X6, "done")
		a.I(insn.MOVZ(insn.X6, 1, 0))
		a.I(insn.MOVImm64(insn.X9, uint64(patch))...)
		a.ADR(insn.X10, "loop")
		a.I(insn.STRW(insn.X9, insn.X10, 0))
		a.I(insn.MOVZ(insn.X5, 4, 0))
		a.B("loop")
		a.Label("done")
		a.I(insn.HLT(0))
	})
	if c.TracesBuilt == 0 || c.TraceFollows == 0 {
		t.Fatalf("TracesBuilt = %d, TraceFollows = %d; the loop never fused, so severing was not exercised",
			c.TracesBuilt, c.TraceFollows)
	}
	if c.X[0] != 7 {
		t.Fatalf("x0 = %d; a fused trace served stale code after the in-page store", c.X[0])
	}
	// The second pass is 4 iterations — far below the hotness threshold —
	// so the severed trace must not have been rebuilt either.
	if got := c.LiveTraces(); got != 0 {
		t.Fatalf("LiveTraces = %d after severing; the stale trace is still attached", got)
	}
}

// TestCrossCoreShootdownMidTrace: CPU 1 runs a looping trace and is
// interrupted mid-loop by budget exhaustion; CPU 0 then patches the
// loop's page. When CPU 1 resumes the same loop, the cluster generation
// cells must sever both the trace and its blocks — the remaining
// iterations execute the patched body.
func TestCrossCoreShootdownMidTrace(t *testing.T) {
	patch := insn.MOVZ(insn.X0, 7, 0).Encode()
	c0, c1, img := buildPeers(t, func(a *asm.Assembler) {
		a.Label("patcher") // CPU 0
		a.I(insn.MOVImm64(insn.X9, uint64(patch))...)
		a.ADR(insn.X10, "loop")
		a.I(insn.STRW(insn.X9, insn.X10, 0))
		a.I(insn.HLT(0))
		a.Label("runner") // CPU 1
		a.I(insn.MOVZ(insn.X5, 400, 0))
		a.Label("loop")
		a.I(insn.MOVZ(insn.X0, 1, 0)) // body: patched mid-run by CPU 0
		a.I(insn.SUBi(insn.X5, insn.X5, 1))
		a.CBNZ(insn.X5, "loop")
		a.I(insn.HLT(0))
	})

	// CPU 1 burns a bounded budget: enough iterations to fuse the loop
	// (hotThreshold entries) and follow the trace, then StopLimit lands
	// mid-loop with the trace warm and hundreds of iterations left.
	c1.PC = img.Symbols["runner"]
	if stop := c1.Run(200); stop.Kind != StopLimit {
		t.Fatalf("cpu1 warm run: %+v", stop)
	}
	if c1.TraceFollows == 0 || c1.LiveTraces() == 0 {
		t.Fatalf("TraceFollows = %d, LiveTraces = %d; the loop was not mid-trace at the interruption",
			c1.TraceFollows, c1.LiveTraces())
	}

	// CPU 0 patches the loop body: the shared generation cells move.
	c0.PC = img.Symbols["patcher"]
	if stop := c0.Run(100); stop.Kind != StopHLT {
		t.Fatalf("cpu0 patch run: %+v", stop)
	}

	// CPU 1 resumes where it stopped: the warm trace and its blocks are
	// stale and must not be served.
	if stop := c1.Run(10_000); stop.Kind != StopHLT {
		t.Fatalf("cpu1 resume: %+v", stop)
	}
	if c1.X[0] != 7 {
		t.Fatalf("x0 = %d; cpu1 kept executing a trace severed by a peer store", c1.X[0])
	}
}

// TestRestoreStateDropsWarmTraces: RestoreState (the snapshot reset
// path) must come up with no live traces — restored RAM may hold
// different code than the fused copies.
func TestRestoreStateDropsWarmTraces(t *testing.T) {
	c := runSnippet(t, nil, func(a *asm.Assembler) {
		a.I(insn.MOVZ(insn.X5, 64, 0))
		a.Label("loop")
		a.I(insn.ADDr(insn.X6, insn.X6, insn.X5))
		a.I(insn.SUBi(insn.X5, insn.X5, 1))
		a.CBNZ(insn.X5, "loop")
		a.I(insn.HLT(0))
	})
	if c.LiveTraces() == 0 {
		t.Fatal("hot loop left no live trace to drop")
	}
	st := c.CaptureState()
	c.RestoreState(st)
	if got := c.LiveTraces(); got != 0 {
		t.Fatalf("LiveTraces = %d after RestoreState, want 0", got)
	}
}

// TestLinkSlotCollisionStopsFusion: trace fusion reads each successor
// from the link cache, so a successor whose slot currently holds a
// different PC must end the trace rather than fuse the slot's block.
// Blocks B and C sit linkSlots*4 bytes apart and share one slot; on
// every pass C's entry evicts B, so when A turns hot its successor B is
// not in the cache and A's trace must hold A alone.
func TestLinkSlotCollisionStopsFusion(t *testing.T) {
	c := runSnippet(t, nil, func(a *asm.Assembler) {
		a.I(insn.MOVZ(insn.X5, 64, 0))
		a.Label("A")
		a.I(insn.ADDr(insn.X6, insn.X6, insn.X5))
		a.B("B")
		a.Label("B")
		offB := a.Offset()
		a.I(insn.SUBi(insn.X5, insn.X5, 1))
		a.B("C")
		a.PadTo(offB + linkSlots*insn.Size)
		a.Label("C") // same link slot as B
		a.I(insn.ADDi(insn.X7, insn.X7, 1))
		a.CBNZ(insn.X5, "A")
		a.I(insn.HLT(0))
	})
	if c.X[5] != 0 || c.X[6] != 64*65/2 || c.X[7] != 64 {
		t.Fatalf("x5, x6, x7 = %d, %d, %d; want 0, %d, 64", c.X[5], c.X[6], c.X[7], 64*65/2)
	}
	if c.TracesBuilt == 0 {
		t.Fatal("no trace was built; the loop never turned hot")
	}
	symA := textBase + insn.Size // after the leading MOVZ
	var trA *trace
	for _, b := range c.blocks {
		if b.tr != nil && b.tr.entryVA == symA {
			trA = b.tr
		}
	}
	if trA == nil {
		t.Fatal("block A carries no trace")
	}
	if len(trA.blocks) != 1 || trA.looping {
		t.Fatalf("A's trace fused %d blocks (looping=%v); want A alone, stopped at the colliding successor",
			len(trA.blocks), trA.looping)
	}
}
