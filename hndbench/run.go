package main

import (
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"hitsndiffs/internal/response"
	"hitsndiffs/internal/serve"
)

// warmupRequests is how many scripted requests each client sends before
// timing starts: they connect, fill the caches and fault in the pages the
// timed phase touches. They are part of the script, so every run sends
// the same ones.
const warmupRequests = 32

// setupRepeats is how many times a run sets up; setup_s is their median.
const setupRepeats = 7

// state is the benchmark's own copy of every tenant: the preloaded matrix
// plus every acknowledged write, and the count of acknowledged
// observations the server's generation must equal.
type state struct {
	mu     sync.Mutex
	copies []*response.Matrix
	acked  []uint64
}

func newState(tds []*tenantData) *state {
	st := &state{copies: make([]*response.Matrix, len(tds)), acked: make([]uint64, len(tds))}
	for t, td := range tds {
		st.copies[t] = td.preloadMatrix()
		st.acked[t] = uint64(len(td.preload))
	}
	return st
}

// apply records an acknowledged write.
func (st *state) apply(t int, obs []serve.Observation) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, o := range obs {
		st.copies[t].SetAnswer(o.User, o.Item, o.Option)
	}
	st.acked[t] += uint64(len(obs))
}

// checker validates every rank response the timed phase receives.
type checker struct {
	w   *workload
	tds []*tenantData

	mu         sync.Mutex
	violations []string
	staleSum   float64
	ranks      int
}

func (ck *checker) fail(format string, args ...any) {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	if len(ck.violations) < 20 {
		ck.violations = append(ck.violations, fmt.Sprintf(format, args...))
	}
}

// rankBody checks a successful rank body: one finite score per user and
// staleness within the server's bound.
func (ck *checker) rankBody(r request, body []byte) {
	var rr serve.RankResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		ck.fail("rank body: %v", err)
		return
	}
	td := ck.tds[r.tenant]
	if len(rr.Scores) != td.spec.users {
		ck.fail("tenant %s: %d scores for %d users", td.name, len(rr.Scores), td.spec.users)
	}
	for _, s := range rr.Scores {
		if math.IsNaN(s) || math.IsInf(s, 0) {
			ck.fail("tenant %s: non-finite score", td.name)
			break
		}
	}
	if rr.Staleness > ck.w.maxStale {
		ck.fail("tenant %s: staleness %d over bound %d", td.name, rr.Staleness, ck.w.maxStale)
	}
	ck.mu.Lock()
	ck.staleSum += float64(rr.Staleness)
	ck.ranks++
	ck.mu.Unlock()
}

// windows is how many equal windows the timed phase is cut into. Each
// latency percentile and the throughput are computed per window and
// reported as the median over windows, so a burst of outside load that
// spans one window does not move the run's figure.
const windows = 5

// sample is one completed request: when it finished (since the timed
// phase began) and how long it took.
type sample struct {
	end   time.Duration
	ms    float64
	write bool
}

// timed holds what the closed-loop phase measured.
type timed struct {
	samples      []sample
	seconds      float64
	warmup, main phaseCounts
}

// windowed returns, for each window, the samples of one kind that
// finished in it. A request finishing after the deadline counts in the
// last window.
func (t timed) windowed(write bool) [][]float64 {
	out := make([][]float64, windows)
	width := t.seconds / windows
	for _, s := range t.samples {
		if s.write != write {
			continue
		}
		i := min(int(s.end.Seconds()/width), windows-1)
		out[i] = append(out[i], s.ms)
	}
	return out
}

// medianOf is the median of the per-window values, skipping windows
// without samples.
func medianOf(vals []float64) float64 {
	var xs []float64
	for _, v := range vals {
		if !math.IsNaN(v) {
			xs = append(xs, v)
		}
	}
	return quantile(xs, 0.5)
}

// runTimed drives the workload's closed-loop clients over HTTP: each sends
// its warm-up requests, then its script until the deadline or maxRequests
// (0 = no cap). Every acknowledged write lands in st; every rank body is
// checked.
func runTimed(e *env, tds []*tenantData, st *state, ck *checker, seed int64, seconds float64, maxRequests int) timed {
	w := e.w
	type clientOut struct {
		samples      []sample
		warmup, main phaseCounts
	}
	outs := make([]clientOut, w.clients)
	var ready, wg sync.WaitGroup
	start := make(chan struct{})
	var began time.Time
	for cl := 0; cl < w.clients; cl++ {
		ready.Add(1)
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			out := &outs[cl]
			sc := newScript(w, tds, seed, cl)
			c := &caller{e: e, counts: &out.warmup}
			for i := 0; i < warmupRequests; i++ {
				issue(c, tds, st, ck, sc.next())
			}
			ready.Done()
			<-start
			c.counts = &out.main
			deadline := began.Add(time.Duration(seconds * float64(time.Second)))
			for n := 0; maxRequests == 0 || n < maxRequests; n++ {
				if time.Now().After(deadline) {
					break
				}
				r := sc.next()
				d, ok := issue(c, tds, st, ck, r)
				if ok {
					out.samples = append(out.samples, sample{time.Since(began), float64(d) / float64(time.Millisecond), r.isWrite()})
				}
			}
		}(cl)
	}
	ready.Wait()
	began = time.Now()
	close(start)
	wg.Wait()
	res := timed{seconds: seconds}
	for _, o := range outs {
		res.samples = append(res.samples, o.samples...)
		res.warmup.add(o.warmup)
		res.main.add(o.main)
	}
	return res
}

// issue sends one scripted request, records an acknowledged write and
// checks a rank body. ok reports a 2xx response.
func issue(c *caller, tds []*tenantData, st *state, ck *checker, r request) (time.Duration, bool) {
	status, body, d, err := c.post(r.path(), r.payload(tds))
	if err != nil || status/100 != 2 {
		return d, false
	}
	if r.isWrite() {
		st.apply(r.tenant, r.obs)
	} else {
		ck.rankBody(r, body)
	}
	return d, true
}

// runUntraced is the end-to-end run: set up setupRepeats times (keeping
// the last environment), drive the timed phase, and run the correctness
// gate.
func runUntraced(w *workload, tds []*tenantData, o options) (*report, error) {
	rep := &report{w: w, seed: o.seed, metrics: map[string]float64{}}
	pristine, dataDir := filepath.Join(o.workdir, "pristine"), filepath.Join(o.workdir, "data")
	if w.durable {
		if err := writePristine(w, tds, pristine); err != nil {
			return nil, fmt.Errorf("write data directory: %w", err)
		}
	}
	var setupCounts phaseCounts
	var e *env
	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, err
			}
		}
		var d time.Duration
		var err error
		if e, d, err = setup(w, tds, pristine, dataDir, &setupCounts); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	rep.phase("setup", setupCounts)
	rep.setups = setups

	st := newState(tds)
	ck := &checker{w: w, tds: tds}
	quiesce()
	tm := runTimed(e, tds, st, ck, o.seed, o.seconds, o.maxRequests)
	rep.phase("warmup", tm.warmup)
	rep.phase("timed", tm.main)
	rep.count(tm.warmup, tm.main)
	ranks, writes := tm.windowed(false), tm.windowed(true)
	rep.samples = map[string][]int{"rank": counts(ranks), "write": counts(writes)}

	q, err := finalCheck(e, tds, st, ck, rep, dataDir)
	if err != nil {
		return nil, err
	}
	perWindow := func(ws [][]float64, q float64) []float64 {
		out := make([]float64, len(ws))
		for i, w := range ws {
			out[i] = quantile(w, q)
		}
		return out
	}
	tput := make([]float64, windows)
	for i := range tput {
		tput[i] = float64(len(ranks[i])+len(writes[i])) / (tm.seconds / windows)
	}
	m := rep.metrics
	for _, k := range []struct {
		name string
		vals []float64
	}{
		{"rank_p50_ms", perWindow(ranks, 0.5)},
		{"rank_p90_ms", perWindow(ranks, 0.9)},
		{"write_p50_ms", perWindow(writes, 0.5)},
		{"write_p90_ms", perWindow(writes, 0.9)},
		{"throughput_rps", tput},
	} {
		m[k.name] = medianOf(k.vals)
		rep.notes = append(rep.notes, fmt.Sprintf("%s per window: %s", k.name, floats(k.vals)))
	}
	m["setup_s"] = quantile(setups, 0.5)
	m["peak_rss_mb"] = peakRSSMB()
	m["spearman_truth"] = q.truth
	m["spearman_exact"] = q.exact
	return rep, nil
}

// counts returns each window's sample count.
func counts(ws [][]float64) []int {
	out := make([]int, len(ws))
	for i, w := range ws {
		out[i] = len(w)
	}
	return out
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (NaN for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
