package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"overcell/internal/flow"
	"overcell/internal/robust"
	"overcell/internal/serve"
	"overcell/internal/serve/journal"
	"overcell/internal/version"
)

// buildDir holds everything a run writes, relative to the checkout
// root the benchmark runs from.
const buildDir = ".bench_build"

// journalFsync is the journal policy the serve workload runs with.
// ocserved's -journal-fsync default is "always", but an fsync takes
// about half of a small op and its latency is the disk's: on a shared
// host it doubled the spread of every wall-clock metric. With "never"
// the journal still encodes, checksums and writes every record.
const journalFsync = "never"

// server is an in-process ocserved: serve.New with the command's
// default flags, a journal, and an HTTP listener on loopback.
type server struct {
	srv     *serve.Server
	hs      *http.Server
	served  chan error
	cancel  context.CancelFunc
	journal *journal.Journal
	dir     string
	base    string
	client  *http.Client
}

func bootServer() (*server, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	policy, err := journal.ParseSync(journalFsync)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(buildDir, "journal-")
	if err != nil {
		return nil, err
	}
	j, _, err := journal.Open(filepath.Join(dir, "wal.ndjson"), journal.Options{Sync: policy})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	// ocserved's flag defaults; its text log goes to stderr there and
	// is formatted but discarded here.
	srv := serve.New(serve.Config{
		MaxRuns: 2, MaxPending: 16, KeepRuns: 64,
		BaseCtx: ctx, Workers: 0,
		Retry:   robust.Policy{MaxAttempts: 1, BaseDelay: 100 * time.Millisecond, Cap: 10 * time.Second},
		Journal: j, Version: version.String(),
		Logger: slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo})),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cancel()
		j.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	s := &server{
		srv: srv, hs: &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1), cancel: cancel, journal: j, dir: dir,
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// close drains the server, stops the listener goroutine, closes the
// journal and removes its directory.
func (s *server) close() error {
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.srv.StartDrain()
	s.srv.DrainWait(ctx)
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.cancel()
	if jerr := s.journal.Close(); err == nil {
		err = jerr
	}
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

func (s *server) journalBytes() int64 {
	fi, err := os.Stat(s.journal.Path())
	if err != nil {
		return 0
	}
	return fi.Size()
}

// serveOp is one request pair: POST /runs?wait=1, then GET /runs/{id}.
type serveOp struct {
	op      op
	latency time.Duration
	status  int // first non-200 status, or 200
	state   string
	hash    string
	queue   time.Duration
	route   time.Duration
	events  uint64
	err     error
}

func (s *server) do(in instance, o op) serveOp {
	r := serveOp{op: o}
	t0 := time.Now()
	var post, get serve.RunStatus
	r.status, r.err = s.request(http.MethodPost, "/runs?flow="+o.flow+"&wait=1", in.json, &post)
	if r.err == nil && r.status == http.StatusOK {
		r.status, r.err = s.request(http.MethodGet, "/runs/"+post.ID, nil, &get)
	}
	r.latency = time.Since(t0)
	if r.err != nil || r.status != http.StatusOK {
		return r
	}
	r.state, r.hash, r.events = get.State, get.ResultHash, get.StreamEvents
	if post.ResultHash != get.ResultHash {
		r.err = fmt.Errorf("POST result_hash %.12s, GET %.12s", post.ResultHash, get.ResultHash)
	}
	if get.Started != nil && get.Finished != nil {
		r.queue = get.Started.Sub(get.Submitted)
		r.route = get.Finished.Sub(*get.Started)
	}
	return r
}

// request sends one request and decodes a 200 reply into out.
func (s *server) request(method, path string, body []byte, out any) (int, error) {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.Unmarshal(data, out)
}

// serveSetup boots the server setupRepeats times, each time with
// freshly generated and encoded instances, and keeps the last one.
func serveSetup(s spec, seed int64) (insts []instance, ops []op, round int, last *server, times []float64, err error) {
	for i := 0; i < setupRepeats; i++ {
		if last != nil {
			if err := last.close(); err != nil {
				return nil, nil, 0, nil, nil, err
			}
		}
		elapsed := setupTimer()
		insts, ops, round, err = s.build(seed)
		if err != nil {
			return nil, nil, 0, nil, nil, err
		}
		last, err = bootServer()
		if err != nil {
			return nil, nil, 0, nil, nil, err
		}
		times = append(times, elapsed())
	}
	return insts, ops, round, last, times, nil
}

// runServe drives the closed loop: s.clients goroutines, each sending
// its next request pair when the last one returned. The op cycle is
// shared, so every (instance, flow) pair recurs in order.
func runServe(s spec, seed int64, seconds time.Duration, traced bool) (*report, error) {
	insts, ops, round, sv, setups, err := serveSetup(s, seed)
	if err != nil {
		return nil, err
	}
	defer sv.close()
	rep := newReport(s.name, insts)
	// Warm-up: one untimed pass over the cycle.
	for _, o := range ops {
		sv.do(insts[o.inst], o)
	}
	runtime.GC()

	var (
		mu      sync.Mutex
		results []serveOp
		next    int
	)
	j0 := sv.journalBytes()
	t0 := time.Now()
	m := newMeter(round, processMark(t0))
	var wg sync.WaitGroup
	for c := 0; c < s.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if loopDone(time.Since(t0), seconds, len(results)) {
					mu.Unlock()
					return
				}
				o := ops[next%len(ops)]
				next++
				mu.Unlock()
				r := sv.do(insts[o.inst], o)
				mu.Lock()
				results = append(results, r)
				// The checks against in-process hashes come after the
				// loop; here an op counts as done when the server says so.
				m.done(r.err == nil && r.status == http.StatusOK && r.state == serve.StateDone)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	journalBytes := sv.journalBytes() - j0

	// Checks: every reply is a 200 with state done, and its result
	// hash equals the in-process flow.Hash of the same instance and
	// flow.
	refs := newServeRefs(insts)
	var t tally
	var lat []float64
	var q qualityMean
	var queue, route, overheadT time.Duration
	var events uint64
	rejected := 0
	for _, r := range results {
		name := insts[r.op.inst].name + "/" + r.op.flow
		if r.status == http.StatusServiceUnavailable {
			rejected++
		}
		switch {
		case r.err != nil:
			t.fail(fmt.Sprintf("%s: %v", name, r.err))
			continue
		case r.status != http.StatusOK:
			t.fail(fmt.Sprintf("%s: HTTP %d", name, r.status))
			continue
		case r.state != serve.StateDone:
			t.fail(fmt.Sprintf("%s: state %s", name, r.state))
			continue
		}
		ref := refs.get(r.op)
		if ref.err != nil {
			t.checkFailed(fmt.Sprintf("%s: served done, in-process flow failed: %v", name, ref.err), false)
			continue
		}
		if r.hash != ref.hash {
			t.checkFailed(fmt.Sprintf("%s: result_hash %.12s, in-process flow.Hash %.12s", name, r.hash, ref.hash), false)
			continue
		}
		t.ok()
		lat = append(lat, ms(r.latency))
		q.add(ref.quality)
		queue += r.queue
		route += r.route
		overheadT += r.latency - r.queue - r.route
		events += r.events
	}
	if !traced {
		rep.endToEnd(setups, lat, m, t, q.mean())
		return rep, nil
	}
	// The flow layers run inside the server; replay each op of the
	// cycle once in-process to attribute them, and check the replay
	// against the in-process flow.
	acc := newLayers()
	untracedMS, tracedMS := map[op][]float64{}, map[op][]float64{}
	for _, o := range ops {
		name := insts[o.inst].name + "/" + o.flow
		ref := refs.get(o)
		r, err := replay(insts[o.inst], o.flow, acc)
		acc.ops++
		switch {
		case (err != nil) != (ref.err != nil):
			t.checkFailed(fmt.Sprintf("%s: replay error %v, flow error %v", name, err, ref.err), false)
		case err == nil && r.sum != ref.sum:
			t.checkFailed(fmt.Sprintf("%s: replay area/wire/vias %v, flow %v", name, r.sum, ref.sum), false)
		case err == nil && r.attribution != "":
			t.checkFailed(name+": "+r.attribution, false)
		}
		if err == nil && ref.err == nil {
			untracedMS[o] = append(untracedMS[o], ms(ref.dur))
			tracedMS[o] = append(tracedMS[o], ms(r.dur))
		}
	}
	rep.perLayer(acc, t, overhead(untracedMS, tracedMS))
	n := float64(max(len(lat), 1))
	rep.set("serve.queue_wait_ms", ms(queue)/n)
	rep.set("serve.route_ms", ms(route)/n)
	rep.set("serve.overhead_ms", ms(overheadT)/n)
	rep.set("serve.rejected_frac", frac(rejected, len(results)))
	rep.set("journal.bytes_per_run", float64(journalBytes)/float64(max(len(results), 1)))
	rep.set("obs.stream_events_per_run", float64(events)/n)
	return rep, nil
}

// serveRef is the in-process result of one (instance, flow) pair.
type serveRef struct {
	hash    string
	sum     summary
	quality quality
	dur     time.Duration
	err     error
}

// serveRefs computes each pair's in-process result once, on demand.
type serveRefs struct {
	insts []instance
	m     map[op]*serveRef
}

func newServeRefs(insts []instance) *serveRefs {
	return &serveRefs{insts: insts, m: map[op]*serveRef{}}
}

func (s *serveRefs) get(o op) *serveRef {
	if r, ok := s.m[o]; ok {
		return r
	}
	r := &serveRef{}
	inst, res, d, err := flowRun(s.insts[o.inst], o.flow)
	r.dur, r.err = d, err
	if err == nil {
		r.hash = flow.Hash(res)
		r.sum = summary{res.Area, res.WireLength, res.Vias}
		r.quality = measureQuality(inst, res)
	}
	s.m[o] = r
	return r
}
