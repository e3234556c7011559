package experiments

import (
	"fmt"
	"strings"

	"ltefp/internal/obs"
)

// MetricsReport condenses a pipeline registry snapshot into the short
// per-run health block lteexperiments prints after each experiment. It is
// deliberately separate from every result's String() so the golden
// renderings stay byte-stable whether or not metrics are enabled.
//
// Cells are aggregated: pipeline.cell1.sniffer.candidates and
// pipeline.cell2.sniffer.candidates both land in the "candidates" total.
//
// Counters measure computed work; served work shows on the cache: line.
// A run served from the artifact store reports zero candidates and zero
// rows trained, and its hits on the cache: line account for the rest.
func MetricsReport(snap obs.Snapshot) string {
	sum := func(suffix string) int64 {
		var total int64
		for _, c := range snap.Counters {
			if strings.HasSuffix(c.Name, suffix) {
				total += c.Value
			}
		}
		return total
	}
	pct := func(part, whole int64) float64 {
		if whole == 0 {
			return 0
		}
		return 100 * float64(part) / float64(whole)
	}
	histLine := func(name string) string {
		h, ok := snap.Histogram(name)
		if !ok || h.Count == 0 {
			return "n/a"
		}
		return fmt.Sprintf("p50=%.2fms p95=%.2fms", h.Quantile(0.50), h.Quantile(0.95))
	}

	var b strings.Builder
	candidates := sum(".sniffer.candidates")
	records := sum(".sniffer.records")
	lost := sum(".sniffer.lost")
	leaked := sum(".sniffer.corrupt_leaked")
	rejects := sum(".sniffer.plausibility_rejects")
	fmt.Fprintf(&b, "sniffer:  %d candidates, %d records, %d lost (%.2f%%), %d corrupt leaked, %d plausibility rejects\n",
		candidates, records, lost, pct(lost, candidates), leaked, rejects)
	fmt.Fprintf(&b, "enb:      %d DL grants, %d UL grants, %d padding events, %d PDCCH blocked\n",
		sum(".enb.grants_dl"), sum(".enb.grants_ul"), sum(".enb.padding_events"), sum(".enb.pdcch_blocked"))
	fmt.Fprintf(&b, "features: %d rows extracted, extract %s\n",
		snap.Counter("pipeline.features.rows"), histLine("pipeline.features.extract_ms"))
	fmt.Fprintf(&b, "forest:   %d rows trained (train %s), %d rows predicted (batch %s)\n",
		snap.Counter("pipeline.forest.rows_trained"), histLine("pipeline.forest.train_ms"),
		snap.Counter("pipeline.forest.rows_predicted"), histLine("pipeline.forest.batch_ms"))
	fmt.Fprintf(&b, "workers:  %d tasks, task %s\n",
		snap.Counter("pipeline.workers.tasks"), histLine("pipeline.workers.task_ms"))
	fmt.Fprintf(&b, "cache:    %d mem hits, %d disk hits, %d misses, %d bypasses, %d evictions, %d disk discards\n",
		snap.Counter("pipeline.cache.mem_hits"), snap.Counter("pipeline.cache.disk_hits"),
		snap.Counter("pipeline.cache.misses"), snap.Counter("pipeline.cache.bypasses"),
		snap.Counter("pipeline.cache.evictions"), snap.Counter("pipeline.cache.disk_discards"))
	pairs := snap.Counter("pipeline.corr.pairs_total")
	pruned := snap.Counter("pipeline.corr.pruned_lb_kim") +
		snap.Counter("pipeline.corr.pruned_lb_keogh") +
		snap.Counter("pipeline.corr.abandoned")
	fmt.Fprintf(&b, "corr:     %d pairs swept, %d pruned (%.1f%%: kim %d, keogh %d, abandoned %d), %d full DTW, %d kept, shard %s\n",
		pairs, pruned, pct(pruned, pairs),
		snap.Counter("pipeline.corr.pruned_lb_kim"),
		snap.Counter("pipeline.corr.pruned_lb_keogh"),
		snap.Counter("pipeline.corr.abandoned"),
		snap.Counter("pipeline.corr.full_dtw"),
		snap.Counter("pipeline.corr.kept"),
		histLine("pipeline.corr.stage_ms"))
	return b.String()
}
