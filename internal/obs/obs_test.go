package obs

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func TestNopAndCombine(t *testing.T) {
	if (Nop{}).Enabled() {
		t.Error("Nop reports enabled")
	}
	if OrNop(nil).Enabled() {
		t.Error("OrNop(nil) enabled")
	}
	c := NewCollector()
	if got := OrNop(c); got != Tracer(c) {
		t.Error("OrNop dropped a live tracer")
	}
	if _, ok := Combine(nil, Nop{}).(Nop); !ok {
		t.Errorf("Combine of dead tracers = %T, want Nop", Combine(nil, Nop{}))
	}
	if got := Combine(nil, c, Nop{}); got != Tracer(c) {
		t.Errorf("Combine single survivor = %T, want the collector itself", got)
	}
	w := NewWriter(&bytes.Buffer{})
	m := Combine(c, w)
	if _, ok := m.(multi); !ok || !m.Enabled() {
		t.Fatalf("Combine(two) = %T enabled=%v", m, m.Enabled())
	}
	m.Emit(Event{Type: EvMBFS, Expanded: 3})
	if c.Count(EvMBFS) != 1 || w.Events() != 1 {
		t.Errorf("fan-out missed a tracer: collector=%d writer=%d", c.Count(EvMBFS), w.Events())
	}
}

func TestWriterNDJSON(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Emit(Event{Type: EvNetStart, Net: "n1", Rank: 1, Terminals: 2})
	w.Emit(Event{Type: EvNetDone, Net: "n1", Wire: 120, Vias: 3})
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 2 || w.Events() != 2 {
		t.Fatalf("lines = %d, events = %d, want 2", len(lines), w.Events())
	}
	if lines[0] != `{"ev":"net_start","net":"n1","rank":1,"terms":2}` {
		t.Errorf("line 0 = %s", lines[0])
	}
	// Zero fields must be omitted: a net_done line carries no rank.
	if strings.Contains(lines[1], "rank") || !strings.Contains(lines[1], `"wire":120`) {
		t.Errorf("line 1 = %s", lines[1])
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("write failed") }

func TestWriterLatchesError(t *testing.T) {
	w := NewWriter(failWriter{})
	w.Emit(Event{Type: EvMBFS})
	if w.Err() == nil {
		t.Fatal("write error not latched")
	}
	w.Emit(Event{Type: EvMBFS})
	if w.Events() != 0 {
		t.Errorf("events after error = %d, want 0", w.Events())
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 2, 3, 900, -5} {
		h.Observe(v)
	}
	if h.N != 6 || h.Max != 900 {
		t.Errorf("n=%d max=%d", h.N, h.Max)
	}
	if h.Sum != 906 {
		t.Errorf("sum=%d (negative not clamped?)", h.Sum)
	}
	s := h.String()
	if !strings.Contains(s, "n=6") || !strings.Contains(s, "max=900") {
		t.Errorf("histogram string: %s", s)
	}
}

func TestCollectorAggregation(t *testing.T) {
	c := NewCollector()
	c.Emit(Event{Type: EvMBFS, Levels: 2, Expanded: 10, Pruned: 4, Paths: 3})
	c.Emit(Event{Type: EvMBFS, Levels: 5, Expanded: 30, Pruned: 1, Failed: true})
	c.Emit(Event{Type: EvSelect, Paths: 3, Pruned: 2})
	c.Emit(Event{Type: EvEscalate, Step: 2, Margin: 4})
	c.Emit(Event{Type: EvEscalate, Step: 5, Relaxed: true})
	c.Emit(Event{Type: EvNetDone, Net: "a", Wire: 100, Vias: 4, Corners: 2})
	c.Emit(Event{Type: EvNetDone, Net: "b", Failed: true})
	c.Emit(Event{Type: EvRipup, Net: "b", Victims: 3})
	c.Emit(Event{Type: EvRipupPass, Step: 0, Victims: 1})
	c.Emit(Event{Type: EvMaze, Expanded: 7})
	c.Emit(Event{Type: EvPhaseEnd, Phase: "level-b", DurNS: 1500000})

	if c.Expanded != 47 || c.Pruned != 5 || c.SelectPruned != 2 {
		t.Errorf("search tallies: expanded=%d pruned=%d selpruned=%d", c.Expanded, c.Pruned, c.SelectPruned)
	}
	if c.FailedMBFS != 1 {
		t.Errorf("failed searches = %d", c.FailedMBFS)
	}
	if c.NetsRouted != 1 || c.NetsFailed != 1 || c.Wire != 100 || c.Vias != 4 {
		t.Errorf("net tallies: %d/%d wire=%d vias=%d", c.NetsRouted, c.NetsFailed, c.Wire, c.Vias)
	}
	if c.RipupAttempts != 1 || c.RipupWins != 1 || c.RipupPasses != 1 {
		t.Errorf("ripup tallies: %d/%d/%d", c.RipupAttempts, c.RipupWins, c.RipupPasses)
	}
	if c.EscalationsByStep[2] != 1 || c.RelaxedRetries != 1 {
		t.Errorf("escalations: %v relaxed=%d", c.EscalationsByStep, c.RelaxedRetries)
	}
	if c.Events() != 11 {
		t.Errorf("events = %d, want 11", c.Events())
	}
	sum := c.Summary()
	for _, want := range []string{"mbfs", "escalations: step2:1 step5:1", "rip-up: 1 passes, 1 attempts, 1 recovered", "phase level-b"} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q:\n%s", want, sum)
		}
	}
	// Summary is deterministic across calls (sorted map iteration).
	if c.Summary() != sum {
		t.Error("summary not deterministic")
	}
}

func TestBenchFileRoundTrip(t *testing.T) {
	f := &BenchFile{
		Tag:       "test",
		GoVersion: "go0.0",
		Benchmarks: []BenchEntry{{
			Name: "w1", Runs: 2, NsPerOp: 100, AllocsPerOp: 5,
			Metrics: map[string]float64{"expanded": 42},
		}},
	}
	var buf bytes.Buffer
	if err := WriteBench(&buf, f); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBench(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tag != "test" || len(got.Benchmarks) != 1 || got.Benchmarks[0].Metrics["expanded"] != 42 {
		t.Errorf("round trip mismatch: %+v", got)
	}
	for _, bad := range []string{
		`{}`,
		`{"tag":"x","go_version":"g","benchmarks":[]}`,
		`{"tag":"x","go_version":"g","benchmarks":[{"name":"","runs":1}]}`,
		`{"tag":"x","go_version":"g","benchmarks":[{"name":"a","runs":0}]}`,
	} {
		if _, err := ReadBench(strings.NewReader(bad)); err == nil {
			t.Errorf("ReadBench accepted %s", bad)
		}
	}
}
