package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"

	"overcell/internal/flow"
	"overcell/internal/gen"
)

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 9

// setupTimer times one set-up in process CPU time, after a collection
// so the garbage of earlier work is not charged to it. Set-up is short
// (milliseconds), and CPU time, unlike wall time, does not grow while
// other tenants of a shared host hold the CPUs; work moved into set-up
// still shows in full.
func setupTimer() func() float64 {
	runtime.GC()
	c0 := cpuTime()
	return func() float64 { return (cpuTime() - c0).Seconds() }
}

// maxLoop bounds a measuring loop that is still short of minSamples
// when its --seconds are up, so a run always ends well inside the
// three minutes the harness allows.
const maxLoop = 100 * time.Second

// loopDone reports whether a closed loop may stop: its seconds are up
// and it has enough samples for the tail percentile, or it hit maxLoop.
func loopDone(elapsed, seconds time.Duration, samples int) bool {
	if elapsed >= maxLoop {
		return true
	}
	return elapsed >= seconds && samples >= minSamples()
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// processMark reads the wall clock since t0, the process CPU time and
// the bytes allocated so far.
func processMark(t0 time.Time) func() mark {
	return func() mark {
		return mark{t: time.Since(t0), cpu: cpuTime(), alloc: totalAlloc()}
	}
}

// setup builds the workload setupRepeats times and returns the last
// build with the setup times.
func setup(s spec, seed int64) (insts []instance, ops []op, round int, times []float64, err error) {
	for i := 0; i < setupRepeats; i++ {
		elapsed := setupTimer()
		insts, ops, round, err = s.build(seed)
		if err != nil {
			return nil, nil, 0, nil, err
		}
		times = append(times, elapsed())
	}
	return insts, ops, round, times, nil
}

// flowRun is one untraced op: decode the instance JSON and run the
// flow with the program's defaults.
func flowRun(in instance, name string) (*gen.Instance, *flow.Result, time.Duration, error) {
	t0 := time.Now()
	inst, err := gen.ReadJSON(bytes.NewReader(in.json))
	var res *flow.Result
	if err == nil {
		res, err = flows[name](inst, flow.Options{})
	}
	d := time.Since(t0)
	if err == nil && res.Degraded > 0 {
		err = fmt.Errorf("%d level B nets degraded", res.Degraded)
	}
	return inst, res, d, err
}

// flowChecks holds the output checks of the flow workloads.
type flowChecks struct {
	// hashes is the flow.Hash of each op's first result; every repeat
	// must match it.
	hashes map[op]string
	// areas is each instance's area per flow, for the Table-2
	// direction check.
	areas map[int]map[string]int64
	// summaries are area, wire length and vias per op, which the
	// traced replay must reproduce.
	summaries map[op]summary
}

type summary struct {
	area       int64
	wire, vias int
}

func newFlowChecks() *flowChecks {
	return &flowChecks{
		hashes:    map[op]string{},
		areas:     map[int]map[string]int64{},
		summaries: map[op]summary{},
	}
}

// record checks one successful result and reports a mismatch.
func (c *flowChecks) record(o op, res *flow.Result, insts []instance) error {
	h := flow.Hash(res)
	if ref, ok := c.hashes[o]; ok && ref != h {
		return fmt.Errorf("%s/%s: flow.Hash %s differs from the first run's %s",
			insts[o.inst].name, o.flow, h[:12], ref[:12])
	}
	c.hashes[o] = h
	if c.areas[o.inst] == nil {
		c.areas[o.inst] = map[string]int64{}
	}
	c.areas[o.inst][o.flow] = res.Area
	c.summaries[o] = summary{res.Area, res.WireLength, res.Vias}
	return nil
}

// direction checks the Table-2 result for every instance both flows
// routed: the over-cell flow's area is below the two-layer baseline's.
func (c *flowChecks) direction(insts []instance) []string {
	var bad []string
	for i := range insts {
		a := c.areas[i]
		base, ok1 := a["baseline"]
		prop, ok2 := a["proposed"]
		if ok1 && ok2 && prop >= base {
			bad = append(bad, fmt.Sprintf("%s: proposed area %d not below baseline %d", insts[i].name, prop, base))
		}
	}
	return bad
}

// timedFlows runs a flow workload's closed loop with one client and
// no tracing.
func timedFlows(s spec, seed int64, seconds time.Duration) (*report, error) {
	insts, ops, round, setups, err := setup(s, seed)
	if err != nil {
		return nil, err
	}
	rep := newReport(s.name, insts)
	checks := newFlowChecks()
	// Warm-up: one untimed cycle, so lazy set-up (pools, heap growth)
	// is done before timing. Its results are checked like any other.
	for _, o := range ops {
		if _, res, _, err := flowRun(insts[o.inst], o.flow); err == nil {
			_ = checks.record(o, res, insts) // first results: cannot mismatch
		}
	}
	runtime.GC()
	var lat []float64
	byOp := map[op][]float64{}
	var q qualityMean
	var t tally
	t0 := time.Now()
	m := newMeter(round, processMark(t0))
	for k := 0; !loopDone(time.Since(t0), seconds, len(lat)); k++ {
		o := ops[k%len(ops)]
		inst, res, d, err := flowRun(insts[o.inst], o.flow)
		if err != nil {
			t.fail(fmt.Sprintf("%s/%s: %v", insts[o.inst].name, o.flow, err))
			m.done(false)
			continue
		}
		if err := checks.record(o, res, insts); err != nil {
			t.checkFailed(err.Error(), false)
			m.done(false)
			continue
		}
		t.ok()
		m.done(true)
		lat = append(lat, ms(d))
		byOp[o] = append(byOp[o], ms(d))
		q.add(measureQuality(inst, res))
	}
	if s.name == "table2" {
		for _, msg := range checks.direction(insts) {
			t.checkFailed(msg, true)
		}
	}
	rep.endToEnd(setups, lat, m, t, q.mean())
	rep.byOp = byOp
	return rep, nil
}

// tracedFlows spends the first half of the run on untraced ops, which
// give the reference results and timings, and the second half on the
// traced replay of the same op cycle. Each half runs whole cycles, at
// least one, so the per-op figures weigh the inputs as the timed run
// does.
func tracedFlows(s spec, seed int64, seconds time.Duration) (*report, error) {
	insts, ops, _, _, err := setup(s, seed)
	if err != nil {
		return nil, err
	}
	rep := newReport(s.name, insts)
	checks := newFlowChecks()
	var t tally
	plain := map[op][]float64{}
	t0 := time.Now()
	for c := 0; c == 0 || time.Since(t0) < seconds/2; c++ {
		for _, o := range ops {
			_, res, d, err := flowRun(insts[o.inst], o.flow)
			if err != nil {
				continue // the replay of the same op fails and counts
			}
			if err := checks.record(o, res, insts); err != nil {
				t.checkFailed(err.Error(), false)
				continue
			}
			plain[o] = append(plain[o], ms(d))
		}
	}
	acc := newLayers()
	traced := map[op][]float64{}
	t1 := time.Now()
	for c := 0; c == 0 || time.Since(t1) < seconds/2; c++ {
		for _, o := range ops {
			name := insts[o.inst].name + "/" + o.flow
			r, err := replay(insts[o.inst], o.flow, acc)
			acc.ops++
			if err != nil {
				t.fail(fmt.Sprintf("%s replay: %v", name, err))
				continue
			}
			ref, ok := checks.summaries[o]
			switch {
			case !ok:
				t.checkFailed(name+": replay routed what the flow did not", false)
			case r.sum != ref:
				t.checkFailed(fmt.Sprintf("%s: replay area/wire/vias %v, flow %v", name, r.sum, ref), false)
			case r.attribution != "":
				t.checkFailed(name+": "+r.attribution, false)
			default:
				t.ok()
			}
			traced[o] = append(traced[o], ms(r.dur))
		}
	}
	rep.perLayer(acc, t, overhead(plain, traced))
	return rep, nil
}

// overhead compares the traced replay with the untraced flow, op by
// op: the sum over ops of the mean traced time over the sum of the
// mean untraced time, minus one.
func overhead(plain, traced map[op][]float64) float64 {
	var a, b float64
	for _, o := range sortedOps(traced) {
		if len(plain[o]) > 0 {
			a += mean(traced[o])
			b += mean(plain[o])
		}
	}
	if b == 0 {
		return 0
	}
	return a/b - 1
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// sortedOps returns the keys of m by instance, then flow, so sums and
// reports come out in the same order on every run.
func sortedOps(m map[op][]float64) []op {
	keys := make([]op, 0, len(m))
	for o := range m {
		keys = append(keys, o)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].inst != keys[j].inst {
			return keys[i].inst < keys[j].inst
		}
		return keys[i].flow < keys[j].flow
	})
	return keys
}
