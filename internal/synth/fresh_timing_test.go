package synth

import (
	"repro/internal/liberty"
	"repro/internal/netlist"
	"repro/internal/sta"
)

// The timing passes against a fresh analysis of a bare netlist, for the pass
// and equivalence tests. Non-test code has one Timing per design
// (Design.Timing) and calls the With forms directly.

func Retime(nl *netlist.Netlist, wl *liberty.WireLoad, cons sta.Constraints, maxMoves int) int {
	tm, err := sta.Analyze(nl, wl, cons)
	if err != nil {
		return 0
	}
	return RetimeWith(tm, maxMoves)
}

func SizeForTiming(nl *netlist.Netlist, wl *liberty.WireLoad, cons sta.Constraints, targetSlack float64, maxIters int) int {
	tm, err := sta.Analyze(nl, wl, cons)
	if err != nil {
		return 0
	}
	return SizeForTimingWith(tm, SizeOptions{TargetSlack: targetSlack, MaxIters: maxIters, MinGain: 1e-5})
}

func AreaRecovery(nl *netlist.Netlist, wl *liberty.WireLoad, cons sta.Constraints, margin float64) int {
	tm, err := sta.Analyze(nl, wl, cons)
	if err != nil {
		return 0
	}
	return AreaRecoveryWith(tm, margin)
}
