package experiments

import (
	"repro/internal/metrics"
	"repro/internal/sim"
)

// KernelStat is one simulated run's scheduler counters, labeled by the
// experiment (and sweep point) that owned the environment.
type KernelStat struct {
	Label string
	Stats sim.Stats
}

// kernelStats accumulates the counters of every environment an experiment
// run retired while collection is on (cmd/experiments -kernelstats).
var (
	kernelStats   []KernelStat
	collectKernel bool
)

// CollectKernelStats toggles kernel-counter collection and clears any
// previously collected rows.
func CollectKernelStats(on bool) {
	collectKernel = on
	kernelStats = nil
}

// KernelStats returns the rows collected since CollectKernelStats(true).
func KernelStats() []KernelStat { return kernelStats }

// recordKernel snapshots one environment's scheduler counters under a label.
// No-op unless collection is on, so steady-state runs pay nothing.
func recordKernel(label string, env *sim.Env) {
	if collectKernel {
		kernelStats = append(kernelStats, KernelStat{Label: label, Stats: env.Stats()})
	}
}

// KernelStatsTable renders every collected row — one line per simulated
// environment an experiment retired.
func KernelStatsTable() *metrics.Table {
	t := metrics.NewTable("Kernel scheduler counters per experiment environment",
		"experiment", "handoffs", "inline", "heap pushes", "fifo bypass", "timer cancels")
	for _, k := range kernelStats {
		t.AddRow(k.Label, k.Stats.Handoffs, k.Stats.InlineSteps, k.Stats.HeapPushes,
			k.Stats.FifoBypasses, k.Stats.TimerCancels)
	}
	t.AddNote("collected with -kernelstats; one row per simulated environment")
	return t
}
