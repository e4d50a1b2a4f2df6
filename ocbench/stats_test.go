package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"overcell/internal/flow"
	"overcell/internal/gen"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 5}, {0.9, 9}, {1, 10}, {0.01, 1}, {0.95, 10}} {
		if got := percentile(append([]float64(nil), xs...), c.q); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(empty) = %v, want 0", got)
	}
	if got := percentile([]float64{3}, 0.9); got != 3 {
		t.Errorf("percentile(one sample) = %v, want 3", got)
	}
}

func TestBeyondCountsTailSamples(t *testing.T) {
	for _, c := range []struct{ n, want int }{{0, 0}, {10, 1}, {99, 9}, {100, 10}, {101, 10}, {250, 25}} {
		if got := beyond(c.n, 0.9); got != c.want {
			t.Errorf("beyond(%d, 0.9) = %d, want %d", c.n, got, c.want)
		}
	}
	// p90 needs ten samples past it: 100 is the smallest count.
	if got := minSamples(); got != 100 {
		t.Errorf("minSamples() = %d, want 100", got)
	}
}

func TestLoopDoneWaitsForTailSamples(t *testing.T) {
	if loopDone(20*time.Second, 10*time.Second, 99) {
		t.Error("stopped with 99 samples: the p90 would rest on 9")
	}
	if !loopDone(10*time.Second, 10*time.Second, 100) {
		t.Error("did not stop with the time up and 100 samples")
	}
	if loopDone(5*time.Second, 10*time.Second, 1000) {
		t.Error("stopped before its seconds were up")
	}
	if !loopDone(maxLoop, 10*time.Second, 3) {
		t.Error("ran past maxLoop")
	}
}

func TestMeterTakesMediansOverCycles(t *testing.T) {
	// Cycles of 2 ops: 1 s, 1 s, then a 5 s burst, then 1 s; CPU
	// 10 ms a cycle, 40 ms in the burst; 100 bytes an op.
	clock := []mark{
		{t: 0}, {t: time.Second, cpu: 10 * time.Millisecond, alloc: 200},
		{t: 2 * time.Second, cpu: 20 * time.Millisecond, alloc: 400},
		{t: 7 * time.Second, cpu: 60 * time.Millisecond, alloc: 600},
		{t: 8 * time.Second, cpu: 70 * time.Millisecond, alloc: 800},
	}
	i := 0
	m := newMeter(2, func() mark { k := clock[i]; i++; return k })
	for op := 0; op < 8; op++ {
		m.done(op != 5) // one failure, in the burst cycle
	}
	rate, cpu, alloc := m.costs()
	if rate != 2 || cpu != 5*time.Millisecond || alloc != 100 {
		t.Errorf("costs = %v ops/s, %v cpu/op, %v B/op; want 2, 5ms, 100", rate, cpu, alloc)
	}

	// Shorter than one cycle: one partial interval.
	j := 0
	short := []mark{{t: 0}, {t: time.Second, cpu: time.Millisecond, alloc: 30}}
	m = newMeter(10, func() mark { k := short[j]; j++; return k })
	m.done(true)
	m.done(true)
	m.done(false)
	if rate, cpu, alloc := m.costs(); rate != 2 || cpu != time.Millisecond/3 || alloc != 10 {
		t.Errorf("partial costs = %v, %v, %v; want 2, 333.333µs, 10", rate, cpu, alloc)
	}
}

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{name: "flow", parent: -1, start: 0, end: 100 * ms},
		{name: "a", parent: 0, start: 10 * ms, end: 30 * ms},
		{name: "b", parent: 0, start: 25 * ms, end: 40 * ms}, // overlaps a: counted once
		{name: "c", parent: 0, start: 60 * ms, end: 70 * ms},
		{name: "d", parent: 3, start: 61 * ms, end: 69 * ms},  // grandchild: c's, not flow's
		{name: "e", parent: 0, start: 95 * ms, end: 120 * ms}, // clipped to the parent
	}
	if got, want := selfTime(spans, 0), 100*ms-30*ms-10*ms-5*ms; got != want {
		t.Errorf("self(flow) = %v, want %v", got, want)
	}
	if got, want := selfTime(spans, 3), 2*ms; got != want {
		t.Errorf("self(c) = %v, want %v", got, want)
	}
	if got, want := selfTime(spans, 1), 20*ms; got != want {
		t.Errorf("self(leaf a) = %v, want %v", got, want)
	}
}

func TestTallyFailedFrac(t *testing.T) {
	var tl tally
	if tl.failedFrac() != 0 {
		t.Fatal("empty tally must read 0")
	}
	for i := 0; i < 7; i++ {
		tl.ok()
	}
	tl.fail("flow error")
	tl.checkFailed("hash mismatch", false) // an op the check rejected
	tl.checkFailed("direction", true)      // moves a counted op to failed
	if tl.attempted != 9 || tl.failed != 3 || tl.checkFailures != 2 {
		t.Fatalf("tally = %+v, want 9 attempted, 3 failed, 2 check failures", tl)
	}
	if got, want := tl.failedFrac(), 3.0/9.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("failedFrac = %v, want %v", got, want)
	}
	if tl.firstErr != "flow error" || tl.firstCheck != "hash mismatch" {
		t.Errorf("first messages = %q, %q", tl.firstErr, tl.firstCheck)
	}
}

func TestQualityRatios(t *testing.T) {
	q := qualityRatios(300, 200, 150, 100, 30, 12)
	if q.area != 1.5 || q.wire != 1.5 || q.viasPerNet != 2.5 {
		t.Errorf("qualityRatios = %+v, want 1.5, 1.5, 2.5", q)
	}
	if z := qualityRatios(1, 0, 1, 0, 1, 0); z != (quality{}) {
		t.Errorf("zero denominators give %+v, want zeros", z)
	}
	var m qualityMean
	m.add(quality{1, 2, 3})
	m.add(quality{3, 4, 5})
	if got := m.mean(); got != (quality{2, 3, 4}) {
		t.Errorf("mean = %+v, want {2 3 4}", got)
	}
}

func TestMeasureQualityOnPreset(t *testing.T) {
	inst, err := gen.Ex3Like()
	if err != nil {
		t.Fatal(err)
	}
	res, err := flow.TwoLayerBaseline(inst, flow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := measureQuality(inst, res)
	// Channels take area and wires detour around cells, so both
	// ratios exceed one.
	if q.area <= 1 || q.wire <= 1 || q.viasPerNet <= 0 {
		t.Errorf("quality = %+v, want area and wire ratios above 1 and vias", q)
	}
}

func TestBuildIsSeedDeterministic(t *testing.T) {
	s := specs["table2"]
	a, opsA, round, err := s.build(7)
	if err != nil {
		t.Fatal(err)
	}
	b, _, _, err := s.build(7)
	if err != nil {
		t.Fatal(err)
	}
	c, _, _, err := s.build(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("instance counts differ: %d, %d", len(a), len(b))
	}
	seen := map[op]bool{}
	for _, o := range opsA {
		seen[o] = true
	}
	if len(seen) != len(a)*len(s.flows) {
		t.Errorf("op cycle covers %d (instance, flow) pairs, want %d", len(seen), len(a)*len(s.flows))
	}
	// One round per draw op, each ending in its draw.
	draws := (len(a) - len(s.presets)) * len(s.flows)
	if len(opsA) != draws*round {
		t.Errorf("%d ops in rounds of %d, want %d rounds", len(opsA), round, draws)
	}
	for i := round - 1; i < len(opsA); i += round {
		if opsA[i].inst < len(s.presets) {
			t.Errorf("round ending at op %d ends in a preset", i)
		}
	}
	for i := range a {
		if a[i].name != b[i].name || !bytes.Equal(a[i].json, b[i].json) {
			t.Fatalf("seed 7 built %s twice differently", a[i].name)
		}
	}
	// The presets stay; the draws change with the seed.
	if a[0].name != c[0].name || a[len(a)-1].name == c[len(c)-1].name {
		t.Errorf("seed 7 and 8 sets: %s..%s vs %s..%s", a[0].name, a[len(a)-1].name, c[0].name, c[len(c)-1].name)
	}
}

// TestReplayMatchesFlow pins the traced replay to the flows it mirrors.
func TestReplayMatchesFlow(t *testing.T) {
	inst, err := gen.Ex3Like()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := inst.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	in := instance{name: "ex3", json: buf.Bytes()}
	for _, f := range []string{"baseline", "channel4", "proposed", "channelfree"} {
		_, res, _, err := flowRun(in, f)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		acc := newLayers()
		r, err := replay(in, f, acc)
		if err != nil {
			t.Fatalf("%s replay: %v", f, err)
		}
		if want := (summary{res.Area, res.WireLength, res.Vias}); r.sum != want {
			t.Errorf("%s: replay %+v, flow %+v", f, r.sum, want)
		}
		if r.attribution != "" {
			t.Errorf("%s: %s", f, r.attribution)
		}
		if (f == "proposed" || f == "channelfree") && (acc.searches == 0 || acc.dur["core.route"] == 0 || acc.dur["verify"] == 0) {
			t.Errorf("%s: no level B spans or search events recorded: %+v", f, acc)
		}
		if f != "channelfree" && acc.dur["global.assign"] == 0 {
			t.Errorf("%s: no global.assign span", f)
		}
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metric
// tables in step: same names, same units, same order.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark:", err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEndMetrics)
	check("per_layer", bj.PerLayer, perLayerMetrics)
	if len(bj.Workloads) != len(workloadOrder) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark %d", len(bj.Workloads), len(workloadOrder))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloadOrder[i] {
			t.Errorf("workload %d: BENCHMARK.json %s, benchmark %s", i, w.Name, workloadOrder[i])
		}
	}
}

// TestServeLoop drives the serve workload's two clients against the
// in-process server (run it with -race) and checks that every reply
// passes the output checks and the traced figures come out.
func TestServeLoop(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	s := specs["serve"]
	s.draws = []drawSet{{"small", 4}}
	rep, err := runServe(s, 1, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.tally.attempted < minSamples() || rep.tally.checkFailures > 0 {
		t.Fatalf("tally = %+v, want at least %d attempted and no check failures", rep.tally, minSamples())
	}
	for _, m := range []string{"serve.route_ms", "journal.bytes_per_run", "obs.stream_events_per_run", "core.route_ms"} {
		if rep.values[m] <= 0 {
			t.Errorf("%s = %v, want > 0", m, rep.values[m])
		}
	}
	if entries, _ := os.ReadDir(buildDir); len(entries) != 0 {
		t.Errorf("%s holds %d entries after the run, want the journal removed", buildDir, len(entries))
	}
}
