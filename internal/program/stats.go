package program

import "tracepre/internal/isa"

// Stats summarizes the static structure of an image.
type Stats struct {
	Instrs       int
	Blocks       int
	AvgBlockSize float64
	CondBranches int
	BackBranches int
	Calls        int
	Returns      int
	IndJumps     int
}

// ComputeStats tallies static code structure. Blocks counts basic
// blocks, maximal straight-line runs that control enters only at the
// first instruction: one starts at the image base, at the entry, at
// every static branch, jump or call target, and after every control
// transfer or halt.
func ComputeStats(im *Image) Stats {
	var s Stats
	s.Instrs = im.NumInstrs()
	leaders := map[uint32]bool{im.Base: true, im.Entry: true}
	for pc := im.Base; pc < im.End(); pc += isa.WordSize {
		in, _ := im.At(pc)
		switch in.Classify() {
		case isa.ClassBranch:
			s.CondBranches++
			if in.IsBackwardBranch() {
				s.BackBranches++
			}
			leaders[in.BranchTarget(pc)] = true
		case isa.ClassJump:
			leaders[in.Target] = true
		case isa.ClassCall:
			s.Calls++
			leaders[in.Target] = true
		case isa.ClassReturn:
			s.Returns++
		case isa.ClassJumpInd:
			s.IndJumps++
			if in.Op == isa.OpJalr {
				s.Calls++
			}
		case isa.ClassHalt:
		default:
			continue // straight-line code ends no block
		}
		leaders[pc+isa.WordSize] = true
	}
	for a := range leaders {
		if a >= im.Base && a < im.End() {
			s.Blocks++
		}
	}
	if s.Blocks > 0 {
		s.AvgBlockSize = float64(s.Instrs) / float64(s.Blocks)
	}
	return s
}
