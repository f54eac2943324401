package frontend

import (
	"tracepre/internal/emulator"
	"tracepre/internal/isa"
	"tracepre/internal/trace"
)

// slowPath charges the conventional fetch path for building the trace:
// line-granular i-cache accesses through the arbitrated port at
// SlowFetchWidth instructions per cycle, the memory hierarchy's I-side
// latency on misses, and per-branch prediction penalties from the
// bimodal predictor, RAS and indirect target buffer. It returns the
// total fetch latency and the cycles the i-cache port was busy (the
// cycles the engine can never steal). now is the cycle the fetch
// begins; each miss reaches the hierarchy at now plus the latency
// accumulated so far.
func (f *Frontend) slowPath(tr *trace.Trace, dyns []emulator.Dyn, now uint64) (fetchLat, busy uint64) {
	f.stats.Slow.Builds++
	f.stats.Slow.Instrs += uint64(tr.Len())
	var lastLine uint32
	haveLine := false
	lineMissed := false
	groupCount := 0 // instructions fetched in the current cycle group
	for i, pc := range tr.PCs {
		line := f.ic.LineAddr(pc)
		newGroup := false
		if !haveLine || line != lastLine {
			f.stats.Slow.ICAccesses++
			hit, missLat := f.port.DemandAccess(line, now+fetchLat)
			if !hit {
				f.stats.Slow.ICMisses++
				fetchLat += missLat
				lineMissed = true
			} else {
				lineMissed = false
			}
			lastLine = line
			haveLine = true
			newGroup = true
		}
		// A taken control transfer ends the fetch group even within a
		// line (one noncontiguous block per cycle).
		if i > 0 {
			prev := tr.PCs[i-1]
			if pc != prev+isa.WordSize {
				newGroup = true
			}
		}
		if newGroup || groupCount == f.cfg.SlowFetchWidth {
			busy++
			groupCount = 0
		}
		groupCount++
		if lineMissed {
			f.stats.Slow.InstrsFromICMisses++
		}

		// Per-branch prediction penalties.
		in := tr.Insts[i]
		d := &dyns[i]
		switch in.Classify() {
		case isa.ClassBranch:
			if f.slow.bim.Peek(pc) != d.Taken {
				fetchLat += uint64(f.cfg.MispredictPenalty)
				f.stats.Slow.BranchMisp++
			}
		case isa.ClassCall:
			f.ras.Push(pc + isa.WordSize)
		case isa.ClassReturn:
			if target, ok := f.ras.Pop(); !ok || target != d.NextPC {
				fetchLat += uint64(f.cfg.MispredictPenalty)
				f.stats.Slow.BranchMisp++
			}
		case isa.ClassJumpInd:
			if in.IsCall() {
				f.ras.Push(pc + isa.WordSize)
			}
			// Training happens at retirement (Retire) for all paths;
			// here only the penalty is charged.
			if target, ok := f.slow.itb.Predict(pc); !ok || target != d.NextPC {
				fetchLat += uint64(f.cfg.MispredictPenalty)
				f.stats.Slow.BranchMisp++
			}
		}
	}
	fetchLat += busy
	f.port.ChargeDemand(busy)
	return fetchLat, busy
}
