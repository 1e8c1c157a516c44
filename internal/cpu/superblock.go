package cpu

import (
	"encoding/binary"
	"sync/atomic"

	"camouflage/internal/insn"
	"camouflage/internal/mem"
	"camouflage/internal/mmu"
	"camouflage/internal/obs"
)

// storeCellFor snapshots the cluster's cell epoch and the generation
// cell of physical page pn — the pair the in-trace store memo caches so
// that memoed stores run the code-invalidation contract without a
// noteGuestStore call.
func (c *CPU) storeCellFor(pn uint64) (uint64, *atomic.Uint64) {
	return c.cluster.cellEpoch.Load(), c.cluster.lookup(pn)
}

// hostLoad64/hostStore64 are the host-pointer page accessors shared by
// the inline LDP/STP cases (identical to execute's inlined forms).
func hostLoad64(pg *[mem.PageSize]byte, off uint64) uint64 {
	return binary.LittleEndian.Uint64(pg[off : off+8])
}

func hostStore64(pg *[mem.PageSize]byte, off uint64, v uint64) {
	binary.LittleEndian.PutUint64(pg[off:off+8], v)
}

// hostLoadN/hostStoreN are the sized variants backing the single-register
// load/store fast paths (same truncation rules as loadMem/storeMem).
func hostLoadN(pg *[mem.PageSize]byte, off, size uint64) uint64 {
	switch size {
	case 8:
		return binary.LittleEndian.Uint64(pg[off : off+8])
	case 4:
		return uint64(binary.LittleEndian.Uint32(pg[off : off+4]))
	default:
		return uint64(pg[off])
	}
}

func hostStoreN(pg *[mem.PageSize]byte, off, size, v uint64) {
	switch size {
	case 8:
		binary.LittleEndian.PutUint64(pg[off:off+8], v)
	case 4:
		binary.LittleEndian.PutUint32(pg[off:off+4], uint32(v))
	default:
		pg[off] = byte(v)
	}
}

// Superblock (trace) execution: when a decoded block stays hot — it keeps
// being entered through the block cache — its chain of resolved direct
// successors is fused into a single straight-line trace. A trace executes
// from one flat instruction array with the hottest opcodes dispatched
// inline, paying the per-block epilogue work (chain validation, edge
// resolution, execGen snapshots) once per trace entry instead of once per
// basic block, and — for loop-shaped traces — re-entering the loop body
// with only an IRQ/budget/execGen check.
//
// Validity is the same §3 contract a chain edge obeys, hoisted to trace
// granularity:
//
//	clause                  checked              severs on
//	----------------------  -------------------  ------------------------
//	entry VA == build VA    every entry          VA aliasing of the entry PA
//	constituent pageGens    every entry          any store into a fused page
//	                                             (self- or cross-CPU), and
//	                                             InvalidateDecode/RestoreState
//	TT0/TT1 identity+gen    every entry          context switch, map/unmap
//	S2 gen+enable           every entry          stage-2 Restrict/Clear
//	EL, MMU enable          every entry          exception, ERET, MMU toggle
//	execGen                 after store-class    any code-page store anywhere
//	                        instrs and at each   in the cluster, mid-trace
//	                        loop back-edge
//
// A clause failing at entry falls back to ordinary block execution (the
// trace is dropped only when a constituent block itself went stale); a
// clause failing mid-trace side-exits with fully architectural state,
// because every instruction retires exactly as it would under execute().
const (
	// hotThreshold is how many times a block is entered before its chain
	// is fused into a trace. Low enough to catch benchmark and syscall
	// loops within their first iterations, high enough that one-shot
	// boot code never pays a build.
	hotThreshold = 16

	// maxTraceBlocks and maxTraceInstrs bound fusion: a trace never holds
	// more than this many constituent blocks or instructions.
	maxTraceBlocks = 16
	maxTraceInstrs = 512

	// ibtbSize is the direct-mapped indirect-branch target cache size
	// (slots of resolved chainEdges keyed by the low PC bits). It covers
	// the block transitions direct chaining cannot: BR/BLR/RET and the
	// authenticated forms, ERET returns, and exception-vector entries.
	ibtbSize = 128
)

// trace is one fused superblock: the concatenated instructions of a run
// of chained basic blocks, the expected successor PC after each
// instruction (uniform side-exit check covering fall-through and fused
// branch targets alike), the constituent blocks (whose shared generation
// cells the entry check validates), and one translation-regime snapshot
// — the builder only fuses edges whose snapshots are identical, so a
// single regime comparison at entry covers every constituent mapping.
type trace struct {
	entryVA uint64
	instrs  []insn.Instr
	succ    []uint64 // expected PC after instrs[k] retires

	blocks []*codeBlock

	// lastGen is the cluster execGen value as of the last full
	// constituent-block validation (build time, or a re-arm in
	// traceValid): while execGen is unmoved no generation cell anywhere
	// can have moved either — every cell bump also bumps execGen — so
	// entry validation is one atomic load instead of a per-block walk.
	lastGen uint64

	table *mmu.Table
	tgen  uint64
	s2gen uint64
	s2en  bool
	tt1   bool
	mmuOn bool
	el    int8

	// looping marks a trace whose last fused successor is its own entry
	// (a loop body): the execution loop re-enters the body directly,
	// re-checking only IRQ, budget and execGen.
	looping bool
}

// traceValid reports whether t may run right now from entryVA: every
// constituent block's generation cell is unmoved and the translation
// regime still matches the build-time snapshot (see the clause table
// above). The caller has just fetched or chain-validated the entry
// block, so the entry mapping itself is current.
func (c *CPU) traceValid(t *trace, entryVA uint64) bool {
	if entryVA != t.entryVA {
		return false
	}
	if g := c.cluster.execGen.Load(); g != t.lastGen {
		for _, b := range t.blocks {
			if b.gen != b.genp.Load() {
				return false
			}
		}
		// All cells individually unmoved: re-arm the one-load fast check
		// with the execGen value read before the walk (a bump landing
		// mid-walk re-triggers the walk on the next entry — conservative,
		// never stale).
		t.lastGen = g
	}
	m := c.MMU
	if m.Enabled != t.mmuOn || int8(c.EL) != t.el {
		return false
	}
	if !t.mmuOn {
		return true
	}
	table := m.TT0
	if t.tt1 {
		table = m.TT1
	}
	return t.table == table && t.tgen == table.Gen() &&
		t.s2gen == m.S2.Gen() && t.s2en == m.S2.Enabled
}

// traceStale reports whether a constituent block's code was invalidated
// (as opposed to a transient regime mismatch): only then is the trace
// really dead and worth dropping for a rebuild.
func traceStale(t *trace) bool {
	for _, b := range t.blocks {
		if b.gen != b.genp.Load() {
			return true
		}
	}
	return false
}

// buildTrace fuses the chain starting at block b (entered at entryVA)
// into a trace and attaches it to b. Fusion walks resolved chain edges —
// preferring a conditional branch's taken exit, falling back to its
// sequential exit — and stops at any unresolved or stale edge, any edge
// whose regime snapshot differs from the trace's, any block revisit
// (closing the loop when the revisit is the entry itself), or the size
// caps. A trace is attached even when nothing fuses: a single hot block
// still wins from the inline dispatch loop.
func (c *CPU) buildTrace(b *codeBlock, entryVA uint64) {
	m := c.MMU
	t := &trace{entryVA: entryVA, mmuOn: m.Enabled, el: int8(c.EL)}
	// Snapshot execGen before walking the constituents: a bump landing
	// mid-build leaves lastGen behind the cell state, which only costs
	// one full re-validation at the first entry.
	t.lastGen = c.cluster.execGen.Load()
	if m.Enabled {
		t.tt1 = m.KernelSide(entryVA)
		table := m.TT0
		if t.tt1 {
			table = m.TT1
		}
		t.table, t.tgen = table, table.Gen()
		t.s2gen, t.s2en = m.S2.Gen(), m.S2.Enabled
	}
	va := entryVA
	cur := b
	for {
		if cur.gen != cur.genp.Load() {
			return // constituent went stale mid-build; don't attach
		}
		t.blocks = append(t.blocks, cur)
		for k := range cur.instrs {
			t.instrs = append(t.instrs, cur.instrs[k])
			t.succ = append(t.succ, va+uint64(k+1)*insn.Size)
		}
		if len(t.blocks) >= maxTraceBlocks || len(t.instrs) >= maxTraceInstrs {
			break
		}
		last := len(cur.instrs) - 1
		lastVA := va + uint64(last)*insn.Size
		lastOp := cur.instrs[last].Op

		// Pick the edge to fuse: the taken exit of a direct branch first
		// (loop back-edges live there), else the sequential exit of a
		// conditional or a block that spilled past the page/size cap.
		var e *chainEdge
		var nextVA uint64
		switch {
		case directBranch(lastOp):
			e, nextVA = &cur.taken, lastVA+uint64(cur.instrs[last].Imm)
			if !c.fusable(e, nextVA, t) && condBranch(lastOp) {
				e, nextVA = &cur.fall, lastVA+insn.Size
			}
		case !endsBlock(lastOp):
			e, nextVA = &cur.fall, lastVA+insn.Size
		default:
			// SVC, ERET, MSR, indirect/authenticated branch, HLT,
			// Invalid: never fused across.
			goto done
		}
		if !c.fusable(e, nextVA, t) {
			break
		}
		// Retarget the fused exit: after the branch retires, the PC must
		// be the fused successor — on any other outcome (conditional not
		// taken where the taken side was fused, or vice versa) the trace
		// side-exits with architectural state.
		t.succ[len(t.succ)-1] = nextVA
		if nextVA == entryVA {
			t.looping = true
			goto done
		}
		for _, seen := range t.blocks {
			if seen == e.to {
				goto done // inner revisit that isn't the entry: stop
			}
		}
		cur, va = e.to, nextVA
	}
done:
	b.tr = t
	c.TracesBuilt++
}

// condBranch reports whether op is a conditional direct branch (both
// exits exist and may be fused).
func condBranch(op insn.Op) bool {
	switch op {
	case insn.OpBcond, insn.OpCBZ, insn.OpCBNZ:
		return true
	}
	return false
}

// fusable reports whether chain edge e can be fused into trace t as the
// successor at nextVA: resolved, targeting a still-valid block at that
// PC, under exactly the trace's regime snapshot.
func (c *CPU) fusable(e *chainEdge, nextVA uint64, t *trace) bool {
	if e.to == nil || e.pc != nextVA || e.to.gen != e.to.genp.Load() {
		return false
	}
	if e.mmuOn != t.mmuOn || e.el != t.el {
		return false
	}
	if !t.mmuOn {
		return true
	}
	return e.table == t.table && e.tgen == t.tgen &&
		e.s2gen == t.s2gen && e.s2en == t.s2en && e.tt1 == t.tt1
}

// runTrace executes t until a side exit: an unfused branch outcome, an
// exception or fault, a mid-trace code invalidation (execGen), a
// deliverable IRQ after a store, the budget, or — for non-looping traces
// — simply the end of the body. Every instruction retires with exactly
// the accounting execute() would give it; the hot opcodes are dispatched
// inline, everything else falls back to execute(). done=true propagates
// a machine stop (HLT, error) exactly as Run's inner loop would.
//
// The loop is two-tiered. The first switch covers the pure ALU opcodes:
// they cannot fault, branch or store, so they retire with a constant
// one-cycle epilogue and no successor or hazard check at all — a
// straight-line instruction's PC provably advances to succ[idx]. The
// slow tier handles branches (successor check: an unfused outcome
// side-exits), loads (fault check), stores (fault + execGen/IRQ hazard
// checks — the only inline instructions that can patch code or raise an
// IRQ), and falls back to execute() for everything else.
//
// Cycle/retirement/budget accounting and the PC are carried in locals
// and flushed at every exit and before every call that can observe them
// (execute may read c.Cycles through MRS PMCCNTR/CNTVCT; aborts capture
// c.PC into ELR). The flush points keep the counters bit-identical to
// block-by-block execution.
//
// The caller guarantees: traceValid just passed, no IRQ is deliverable,
// and at least len(t.instrs) budget remains.
func (c *CPU) runTrace(t *trace, n *uint64, maxInstrs uint64) (stop Stop, done bool) {
	c.TraceFollows++
	startGen := c.cluster.execGen.Load()
	code := t.instrs
	succ := t.succ
	var cyc, ret uint64 // batched c.Cycles / c.Retired-and-budget deltas
	pc := c.PC
	// EL and the IRQ mask are constant across inline instructions (only
	// exceptions, ERET and MSR change them, and those all run under
	// execute and end the trace), so deliverability is decided once.
	canIRQ := t.el == 0 && !c.IRQMasked
	// Last-page memo for the inline memory ops: the translation regime is
	// frozen while a trace runs (every regime-changing instruction ends a
	// trace), so a HostData hit stays valid until something outside the
	// inline fast paths runs — a slow-path bus access or an execute()
	// fallback, both of which can reach devices that remap or reseat
	// pages. Those sites reset the memo. Loads and stores memo
	// separately: the access kinds carry different permissions.
	ldVP, stVP := ^uint64(0), ^uint64(0)
	var ldPG, stPG *[mem.PageSize]byte
	var stPN uint64
	// The store memo also caches the page's generation cell and the
	// cell-epoch it was looked up under: a memoed store then pays one
	// epoch load for the code-invalidation contract instead of a
	// noteGuestStore call (same trust rule as the CPU-wide cell memo —
	// a peer decoding from a fresh page bumps the epoch).
	var stCell *atomic.Uint64
	var stEpoch uint64
	for {
		for idx := 0; idx < len(code); idx++ {
			ins := &code[idx]
			op := ins.Op
			switch op {
			case insn.OpADDi:
				c.setRegSP(ins.Rd, c.regSP(ins.Rn)+uint64(ins.Imm)<<ins.Shift)
			case insn.OpSUBi:
				c.setRegSP(ins.Rd, c.regSP(ins.Rn)-uint64(ins.Imm)<<ins.Shift)
			case insn.OpEORr:
				c.SetReg(ins.Rd, c.Reg(ins.Rn)^c.Reg(ins.Rm)<<ins.Shift)
			case insn.OpADDr:
				c.SetReg(ins.Rd, c.Reg(ins.Rn)+c.Reg(ins.Rm)<<ins.Shift)
			case insn.OpSUBr:
				c.SetReg(ins.Rd, c.Reg(ins.Rn)-c.Reg(ins.Rm)<<ins.Shift)
			case insn.OpANDr:
				c.SetReg(ins.Rd, c.Reg(ins.Rn)&(c.Reg(ins.Rm)<<ins.Shift))
			case insn.OpORRr:
				c.SetReg(ins.Rd, c.Reg(ins.Rn)|c.Reg(ins.Rm)<<ins.Shift)
			case insn.OpSUBSr:
				a := c.Reg(ins.Rn)
				b := c.Reg(ins.Rm) << ins.Shift
				res := a - b
				c.SetReg(ins.Rd, res)
				c.N = res>>63 == 1
				c.Z = res == 0
				c.C = a >= b
				c.V = (a>>63 != b>>63) && (res>>63 != a>>63)
			case insn.OpANDSr:
				res := c.Reg(ins.Rn) & (c.Reg(ins.Rm) << ins.Shift)
				c.SetReg(ins.Rd, res)
				c.N = res>>63 == 1
				c.Z = res == 0
				c.C = false
				c.V = false
			case insn.OpMOVZ:
				v := uint64(uint16(ins.Imm)) << ins.Shift
				if !ins.SF {
					v = uint64(uint32(v))
				}
				c.SetReg(ins.Rd, v)
			case insn.OpMOVN:
				v := ^(uint64(uint16(ins.Imm)) << ins.Shift)
				if !ins.SF {
					v = uint64(uint32(v))
				}
				c.SetReg(ins.Rd, v)
			case insn.OpMOVK:
				v := c.Reg(ins.Rd)
				v = v&^(uint64(0xFFFF)<<ins.Shift) | uint64(uint16(ins.Imm))<<ins.Shift
				if !ins.SF {
					v = uint64(uint32(v))
				}
				c.SetReg(ins.Rd, v)
			case insn.OpADR:
				c.SetReg(ins.Rd, pc+uint64(ins.Imm))
			case insn.OpADRP:
				c.SetReg(ins.Rd, pc&^uint64(4095)+uint64(ins.Imm)*4096)
			case insn.OpUBFM:
				r := uint(ins.ImmR)
				s := uint(ins.ImmS)
				src := c.Reg(ins.Rn)
				var v uint64
				if s >= r {
					v = src >> r & maskBits(s-r+1)
				} else {
					v = (src & maskBits(s+1)) << (64 - r)
				}
				c.SetReg(ins.Rd, v)
			case insn.OpCSEL:
				if c.condHolds(ins.Cond) {
					c.SetReg(ins.Rd, c.Reg(ins.Rn))
				} else {
					c.SetReg(ins.Rd, c.Reg(ins.Rm))
				}
			case insn.OpLSLV:
				c.SetReg(ins.Rd, c.Reg(ins.Rn)<<(c.Reg(ins.Rm)&63))
			case insn.OpLSRV:
				c.SetReg(ins.Rd, c.Reg(ins.Rn)>>(c.Reg(ins.Rm)&63))
			case insn.OpNOP:
				// no architectural effect
			default:
				goto slow
			}
			// Fast epilogue: every op above costs exactly costALU and
			// provably advances pc to succ[idx].
			cyc++
			ret++
			pc += insn.Size
			continue

		slow:
			{
				next := pc + insn.Size
				switch op {
				case insn.OpB:
					next = pc + uint64(ins.Imm)
				case insn.OpBL:
					c.X[insn.LR] = pc + insn.Size
					next = pc + uint64(ins.Imm)
				case insn.OpBcond:
					if c.condHolds(ins.Cond) {
						next = pc + uint64(ins.Imm)
					}
				case insn.OpCBZ:
					if c.Reg(ins.Rd) == 0 {
						next = pc + uint64(ins.Imm)
					}
				case insn.OpCBNZ:
					if c.Reg(ins.Rd) != 0 {
						next = pc + uint64(ins.Imm)
					}

				case insn.OpLDR, insn.OpLDRW, insn.OpLDRB, insn.OpLDRpost:
					size := uint64(8)
					if op == insn.OpLDRW {
						size = 4
					} else if op == insn.OpLDRB {
						size = 1
					}
					base := c.regSP(ins.Rn)
					addr := base
					if op != insn.OpLDRpost {
						addr += uint64(ins.Imm)
					}
					off := addr & (mem.PageSize - 1)
					if addr>>mem.PageShift == ldVP && off+size <= mem.PageSize {
						c.SetReg(ins.Rd, hostLoadN(ldPG, off, size))
					} else if pg, o, _, ok := c.MMU.HostData(addr, c.EL, size, mmu.Load); ok {
						ldVP, ldPG = addr>>mem.PageShift, pg
						c.SetReg(ins.Rd, hostLoadN(pg, o, size))
					} else {
						ldVP, stVP = ^uint64(0), ^uint64(0)
						v, f, err := c.loadMem(addr, int(size))
						if err != nil {
							c.PC = pc
							c.flushTrace(n, cyc, ret)
							return Stop{Kind: StopError, Err: err}, true
						}
						if f != nil {
							c.PC = pc
							c.flushTrace(n, cyc, ret)
							c.obsLocal.V[obs.CTraceExitFault]++
							c.dataAbort(f)
							*n++
							return Stop{}, false
						}
						c.SetReg(ins.Rd, v)
					}
					if op == insn.OpLDRpost {
						c.setRegSP(ins.Rn, base+uint64(ins.Imm))
					}
					goto loaded
				case insn.OpLDP, insn.OpLDPpost:
					base := c.regSP(ins.Rn)
					addr := base
					if op == insn.OpLDP {
						addr = base + uint64(ins.Imm)
					}
					off := addr & (mem.PageSize - 1)
					if addr>>mem.PageShift == ldVP && off+16 <= mem.PageSize {
						c.SetReg(ins.Rd, hostLoad64(ldPG, off))
						c.SetReg(ins.Rm, hostLoad64(ldPG, off+8))
					} else if pg, o, _, ok := c.MMU.HostData(addr, c.EL, 16, mmu.Load); ok {
						ldVP, ldPG = addr>>mem.PageShift, pg
						c.SetReg(ins.Rd, hostLoad64(pg, o))
						c.SetReg(ins.Rm, hostLoad64(pg, o+8))
					} else {
						ldVP, stVP = ^uint64(0), ^uint64(0)
						v1, f, err := c.loadMem(addr, 8)
						if err != nil {
							c.PC = pc
							c.flushTrace(n, cyc, ret)
							return Stop{Kind: StopError, Err: err}, true
						}
						if f == nil {
							var v2 uint64
							v2, f, err = c.loadMem(addr+8, 8)
							if err != nil {
								c.PC = pc
								c.flushTrace(n, cyc, ret)
								return Stop{Kind: StopError, Err: err}, true
							}
							if f == nil {
								c.SetReg(ins.Rd, v1)
								c.SetReg(ins.Rm, v2)
							}
						}
						if f != nil {
							c.PC = pc
							c.flushTrace(n, cyc, ret)
							c.obsLocal.V[obs.CTraceExitFault]++
							c.dataAbort(f)
							*n++
							return Stop{}, false
						}
					}
					if op == insn.OpLDPpost {
						c.setRegSP(ins.Rn, base+uint64(ins.Imm))
					}
					goto loaded

				case insn.OpSTR, insn.OpSTRW, insn.OpSTRB, insn.OpSTRpre:
					size := uint64(8)
					if op == insn.OpSTRW {
						size = 4
					} else if op == insn.OpSTRB {
						size = 1
					}
					addr := c.regSP(ins.Rn) + uint64(ins.Imm)
					off := addr & (mem.PageSize - 1)
					if addr>>mem.PageShift == stVP && off+size <= mem.PageSize {
						if c.cluster.cellEpoch.Load() != stEpoch {
							stEpoch, stCell = c.storeCellFor(stPN)
						}
						if stCell != nil {
							stCell.Add(1)
							c.cluster.execGen.Add(1)
							c.obsLocal.V[obs.CBlockSever]++
						}
						hostStoreN(stPG, off, size, c.Reg(ins.Rd))
					} else if pg, o, pn, ok := c.MMU.HostData(addr, c.EL, size, mmu.Store); ok {
						stVP, stPG, stPN = addr>>mem.PageShift, pg, pn
						stEpoch, stCell = c.storeCellFor(pn)
						if stCell != nil {
							stCell.Add(1)
							c.cluster.execGen.Add(1)
							c.obsLocal.V[obs.CBlockSever]++
						}
						hostStoreN(pg, o, size, c.Reg(ins.Rd))
					} else {
						ldVP, stVP = ^uint64(0), ^uint64(0)
						f, err := c.storeMem(addr, int(size), c.Reg(ins.Rd))
						if err != nil {
							c.PC = pc
							c.flushTrace(n, cyc, ret)
							return Stop{Kind: StopError, Err: err}, true
						}
						if f != nil {
							c.PC = pc
							c.flushTrace(n, cyc, ret)
							c.obsLocal.V[obs.CTraceExitFault]++
							c.dataAbort(f)
							*n++
							return Stop{}, false
						}
					}
					if op == insn.OpSTRpre {
						c.setRegSP(ins.Rn, addr)
					}
					goto stored
				case insn.OpSTP, insn.OpSTPpre:
					base := c.regSP(ins.Rn)
					addr := base + uint64(ins.Imm)
					off := addr & (mem.PageSize - 1)
					if addr>>mem.PageShift == stVP && off+16 <= mem.PageSize {
						if c.cluster.cellEpoch.Load() != stEpoch {
							stEpoch, stCell = c.storeCellFor(stPN)
						}
						if stCell != nil {
							stCell.Add(1)
							c.cluster.execGen.Add(1)
							c.obsLocal.V[obs.CBlockSever]++
						}
						hostStore64(stPG, off, c.Reg(ins.Rd))
						hostStore64(stPG, off+8, c.Reg(ins.Rm))
					} else if pg, o, pn, ok := c.hostStorePair(addr); ok {
						stVP, stPG, stPN = addr>>mem.PageShift, pg, pn
						stEpoch, stCell = c.storeCellFor(pn)
						if stCell != nil {
							stCell.Add(1)
							c.cluster.execGen.Add(1)
							c.obsLocal.V[obs.CBlockSever]++
						}
						hostStore64(pg, o, c.Reg(ins.Rd))
						hostStore64(pg, o+8, c.Reg(ins.Rm))
					} else {
						ldVP, stVP = ^uint64(0), ^uint64(0)
						f, err := c.storeMem(addr, 8, c.Reg(ins.Rd))
						if err != nil {
							c.PC = pc
							c.flushTrace(n, cyc, ret)
							return Stop{Kind: StopError, Err: err}, true
						}
						if f == nil {
							f, err = c.storeMem(addr+8, 8, c.Reg(ins.Rm))
							if err != nil {
								c.PC = pc
								c.flushTrace(n, cyc, ret)
								return Stop{Kind: StopError, Err: err}, true
							}
						}
						if f != nil {
							c.PC = pc
							c.flushTrace(n, cyc, ret)
							c.obsLocal.V[obs.CTraceExitFault]++
							c.dataAbort(f)
							*n++
							return Stop{}, false
						}
					}
					if op == insn.OpSTPpre {
						c.setRegSP(ins.Rn, addr)
					}
					goto stored

				case insn.OpInvalid:
					c.PC = pc
					c.flushTrace(n, cyc, ret)
					c.obsLocal.V[obs.CTraceExitFault]++
					c.undefined()
					*n++
					return Stop{}, false

				default:
					// Everything else — PAuth, MSR/MRS, SVC, ERET, HLT,
					// indirect branches — retires through execute, with
					// the architectural counters flushed first.
					c.PC = pc
					c.flushTrace(n, cyc, ret)
					cyc, ret = 0, 0
					c.obsLocal.V[obs.CSlowFallback]++
					stop, done = c.execute(ins)
					*n++
					if done {
						c.obsLocal.V[obs.CTraceExitStop]++
						return stop, true
					}
					ldVP, stVP = ^uint64(0), ^uint64(0)
					pc = c.PC
					if pc != succ[idx] {
						c.obsLocal.V[obs.CTraceExitBranch]++
						return Stop{}, false
					}
					if storeClass[op] {
						if c.cluster.execGen.Load() != startGen {
							c.obsLocal.V[obs.CTraceExitHazard]++
							return Stop{}, false
						}
						if canIRQ && c.IRQPending {
							c.obsLocal.V[obs.CTraceExitIRQ]++
							return Stop{}, false
						}
					}
					continue
				}
				// Branch epilogue: the only inline ops that can diverge
				// from the fused successor (costBranch == costALU == 1).
				cyc++
				ret++
				pc = next
				if pc != succ[idx] {
					c.PC = pc
					c.flushTrace(n, cyc, ret)
					c.obsLocal.V[obs.CTraceExitBranch]++
					return Stop{}, false
				}
				continue
			}

		loaded:
			cyc += costTab[op]
			ret++
			pc += insn.Size
			continue

		stored:
			// Store hazards: the store may have patched code anywhere in
			// the cluster (execGen) or hit a device that raised an IRQ.
			cyc += costTab[op]
			ret++
			pc += insn.Size
			if c.cluster.execGen.Load() != startGen || (canIRQ && c.IRQPending) {
				c.PC = pc
				c.flushTrace(n, cyc, ret)
				if c.cluster.execGen.Load() != startGen {
					c.obsLocal.V[obs.CTraceExitHazard]++
				} else {
					c.obsLocal.V[obs.CTraceExitIRQ]++
				}
				return Stop{}, false
			}
			continue
		}
		// Body complete. Loop-shaped traces re-enter directly: the fused
		// back-edge has already proven pc == entryVA, so only the IRQ,
		// budget and cross-CPU invalidation clauses need re-checking.
		if !t.looping || (canIRQ && c.IRQPending) ||
			maxInstrs-*n-ret < uint64(len(code)) ||
			c.cluster.execGen.Load() != startGen {
			c.PC = pc
			c.flushTrace(n, cyc, ret)
			switch {
			case !t.looping:
				c.obsLocal.V[obs.CTraceExitEnd]++
			case canIRQ && c.IRQPending:
				c.obsLocal.V[obs.CTraceExitIRQ]++
			case maxInstrs-*n < uint64(len(code)): // ret already folded into *n
				c.obsLocal.V[obs.CTraceExitBudget]++
			default:
				c.obsLocal.V[obs.CTraceExitHazard]++
			}
			return Stop{}, false
		}
	}
}

// flushTrace folds runTrace's batched accounting into the architectural
// counters and the caller's budget.
func (c *CPU) flushTrace(n *uint64, cyc, ret uint64) {
	c.Cycles += cyc
	c.Retired += ret
	*n += ret
}
