package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"

	"overcell/internal/core"
)

// endToEndMetrics are the timed run's metrics, with their units, in
// report order; BENCHMARK.json lists the same names.
var endToEndMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"ops_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_mib_per_op", "MiB"},
	{"area_ratio", "ratio"},
	{"wire_ratio", "ratio"},
	{"vias_per_net", "count"},
}

// perLayerMetrics are the traced run's metrics, per op unless the name
// says otherwise. A metric of a layer the workload does not reach
// reads 0.
var perLayerMetrics = []struct{ name, unit string }{
	{"gen.decode_ms", "ms"},
	{"floorplan.place_ms", "ms"},
	{"global.assign_ms", "ms"},
	{"global.feedthroughs", "count"},
	{"channel.route_ms", "ms"},
	{"channel.alloc_mib", "MiB"},
	{"channel.problems", "count"},
	{"channel.tracks", "count"},
	{"channel.greedy_fallback_frac", "ratio"},
	{"grid.build_ms", "ms"},
	{"grid.tracks", "count"},
	{"core.route_ms", "ms"},
	{"core.alloc_mib", "MiB"},
	{"core.nets", "count"},
	{"core.expanded", "count"},
	{"core.escalations", "count"},
	{"core.relaxed_retries", "count"},
	{"core.select_ms", "ms"},
	{"core.select_candidates", "count"},
	{"core.select_pruned_frac", "ratio"},
	{"core.ripup_attempts", "count"},
	{"core.ripup_recovered_frac", "ratio"},
	{"core.speculations", "count"},
	{"core.conflict_frac", "ratio"},
	{"tig.search_ms", "ms"},
	{"tig.searches", "count"},
	{"tig.search_found_frac", "ratio"},
	{"tig.visit_prunes", "count"},
	{"tig.expanded_max", "count"},
	{"verify.ms", "ms"},
	{"verify.alloc_mib", "MiB"},
	{"verify.segments", "count"},
	{"flow.self_ms", "ms"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.route_ms", "ms"},
	{"serve.overhead_ms", "ms"},
	{"serve.rejected_frac", "ratio"},
	{"journal.bytes_per_run", "B"},
	{"obs.stream_events_per_run", "count"},
	{"trace.overhead_frac", "ratio"},
	{"failed_frac", "ratio"},
}

// report is one workload's result.
type report struct {
	workload string
	insts    []instance
	traced   bool
	values   map[string]float64
	// notes annotate a metric's line in the readable report.
	notes map[string]string
	tally tally
	// byOp holds the timed latencies per instance and flow, printed
	// so a reader sees which input carries the time.
	byOp map[op][]float64
}

func newReport(workload string, insts []instance) *report {
	return &report{workload: workload, insts: insts, values: map[string]float64{}, notes: map[string]string{}}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// endToEnd fills the timed run's metrics. lat holds the latencies of
// the ops that succeeded; m gives throughput, CPU and allocation per
// op as medians over the run's rounds.
func (r *report) endToEnd(setups, lat []float64, m *meter, t tally, q quality) {
	r.tally = t
	n := len(lat)
	opsPerS, cpu, alloc := m.costs()
	rounds := max(len(m.marks)-1, 1)
	r.set("setup_s", percentile(setups, 0.5))
	r.notes["setup_s"] = fmt.Sprintf("median of %d set-ups, CPU time", len(setups))
	r.set("op_ms_p50", percentile(lat, 0.5))
	r.notes["op_ms_p50"] = fmt.Sprintf("n=%d", n)
	r.set("op_ms_p90", percentile(lat, tailQ))
	r.notes["op_ms_p90"] = fmt.Sprintf("n=%d, %d beyond", n, beyond(n, tailQ))
	if beyond(n, tailQ) < minTail {
		r.notes["op_ms_p90"] += fmt.Sprintf(" (fewer than %d: tail not resolved)", minTail)
	}
	r.set("ops_per_s", opsPerS)
	r.set("cpu_ms_per_op", ms(cpu))
	r.set("alloc_mib_per_op", alloc/(1<<20))
	r.set("area_ratio", q.area)
	r.set("wire_ratio", q.wire)
	r.set("vias_per_net", q.viasPerNet)
	for _, k := range []string{"ops_per_s", "cpu_ms_per_op", "alloc_mib_per_op"} {
		r.notes[k] = fmt.Sprintf("median of %d rounds of %d ops", rounds, m.every)
	}
	for _, m := range []string{"area_ratio", "wire_ratio", "vias_per_net"} {
		r.notes[m] = fmt.Sprintf("mean over n=%d", n)
	}
}

// perLayer fills the traced run's metrics from the accumulated spans
// and counts.
func (r *report) perLayer(a *layers, t tally, overhead float64) {
	r.traced = true
	r.tally = t
	per := func(x float64) float64 {
		if a.ops == 0 {
			return 0
		}
		return x / float64(a.ops)
	}
	spanMS := func(name string) float64 { return per(ms(a.dur[name])) }
	spanMiB := func(name string) float64 { return per(mib(a.alloc[name])) }
	for name, v := range map[string]float64{
		"gen.decode_ms":                spanMS("gen.decode"),
		"floorplan.place_ms":           spanMS("floorplan.place"),
		"global.assign_ms":             spanMS("global.assign"),
		"global.feedthroughs":          per(float64(a.feedthroughs)),
		"channel.route_ms":             spanMS("channel.route"),
		"channel.alloc_mib":            spanMiB("channel.route"),
		"channel.problems":             per(float64(a.channelProblems)),
		"channel.tracks":               per(float64(a.channelTracks)),
		"channel.greedy_fallback_frac": frac(a.greedyFallbacks, a.doglegTries),
		"grid.build_ms":                spanMS("grid.build"),
		"grid.tracks":                  per(float64(a.gridTracks)),
		"core.route_ms":                spanMS("core.route"),
		"core.alloc_mib":               spanMiB("core.route"),
		"core.nets":                    per(float64(a.coreNets)),
		"core.expanded":                per(float64(a.coreExpanded)),
		"core.escalations":             per(float64(a.escalations)),
		"core.relaxed_retries":         per(float64(a.relaxed)),
		"core.select_ms":               per(ms(a.selectTime)),
		"core.select_candidates":       per(float64(a.candidates)),
		"core.select_pruned_frac":      frac(a.selectPruned, a.candidates),
		"core.ripup_attempts":          per(float64(a.ripups)),
		"core.ripup_recovered_frac":    frac(a.recovered, a.ripups),
		"core.speculations":            per(float64(a.speculations)),
		"core.conflict_frac":           frac(a.conflicts, a.speculations),
		"tig.search_ms":                per(ms(a.searchTime)),
		"tig.searches":                 per(float64(a.searches)),
		"tig.search_found_frac":        frac(a.found, a.searches),
		"tig.visit_prunes":             per(float64(a.prunes)),
		"tig.expanded_max":             float64(a.expandMax),
		"verify.ms":                    spanMS("verify"),
		"verify.alloc_mib":             spanMiB("verify"),
		"verify.segments":              per(float64(a.verifySegments)),
		"flow.self_ms":                 spanMS("flow.self"),
		"trace.overhead_frac":          overhead,
		"failed_frac":                  t.failedFrac(),
	} {
		r.set(name, v)
	}
	r.notes["failed_frac"] = fmt.Sprintf("%d of %d", t.failed, t.attempted)
	if a.ops > 0 {
		r.notes["flow.self_ms"] = fmt.Sprintf("n=%d traced ops", a.ops)
	}
}

// metricList is the mode's metric set.
func (r *report) metricList() []struct{ name, unit string } {
	if r.traced {
		return perLayerMetrics
	}
	return endToEndMetrics
}

// host describes the machine and the defaults a result was taken
// with, so results from different hosts are never compared silently.
type host struct {
	GOMAXPROCS    int    `json:"gomaxprocs"`
	NumCPU        int    `json:"num_cpu"`
	Go            string `json:"go"`
	LevelBWorkers int    `json:"levelb_workers"`
	JournalFsync  string `json:"journal_fsync"`
}

func thisHost() host {
	cfg := core.DefaultConfig()
	return host{
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Go: runtime.Version(), LevelBWorkers: cfg.EffectiveWorkers(),
		JournalFsync: journalFsync,
	}
}

// writeText prints the readable block of one workload: the instance
// set, every metric with its unit and sample count, and the failures.
func (r *report) writeText(w io.Writer) {
	fmt.Fprintf(w, "workload %s:", r.workload)
	for _, in := range r.insts {
		fmt.Fprintf(w, " %s", in.name)
	}
	fmt.Fprintln(w)
	for _, m := range r.metricList() {
		fmt.Fprintf(w, "  %-30s %14.4f %-6s %s\n", m.name, r.values[m.name], m.unit, r.notes[m.name])
	}
	for _, o := range sortedOps(r.byOp) {
		xs := r.byOp[o]
		fmt.Fprintf(w, "    %-24s %-12s p50 %10.3f ms  n=%d\n", r.insts[o.inst].name, o.flow, percentile(xs, 0.5), len(xs))
	}
	t := r.tally
	fmt.Fprintf(w, "  failed %d of %d attempted (%.4f); %d output check failures\n",
		t.failed, t.attempted, t.failedFrac(), t.checkFailures)
	if t.firstErr != "" {
		fmt.Fprintf(w, "  first failure: %s\n", t.firstErr)
	}
	if t.firstCheck != "" {
		fmt.Fprintf(w, "  first check failure: %s\n", t.firstCheck)
	}
	for _, d := range excludedDraws(r.workload) {
		fmt.Fprintf(w, "  left out of the draw pool: %s\n", d)
	}
}

// excludedDraws lists the workload's poolExcluded candidates, sorted,
// so every report shows the failing draws its pools leave out.
func excludedDraws(workload string) []string {
	var out []string
	for key, m := range poolExcluded {
		if !strings.HasPrefix(key, workload+"/") {
			continue
		}
		for g, why := range m {
			out = append(out, fmt.Sprintf("%s %d (%s)", key, g, why))
		}
	}
	sort.Strings(out)
	return out
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// resultLine is the final stdout line. With several reports (the
// `all` workload) metric names are prefixed with the workload.
func resultLine(reps []*report) ([]byte, bool) {
	out := resultJSON{Correct: true, Metrics: map[string]metricJSON{}}
	for _, r := range reps {
		out.Attempted += r.tally.attempted
		out.Failed += r.tally.failed
		if r.tally.checkFailures > 0 {
			out.Correct = false
		}
		for _, m := range r.metricList() {
			key := m.name
			if len(reps) > 1 {
				key = r.workload + "/" + m.name
			}
			out.Metrics[key] = metricJSON{Value: r.values[m.name], Unit: m.unit}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // every value is a finite float by construction
	}
	return b, out.Correct
}
