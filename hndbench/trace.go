package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"hitsndiffs"
	"hitsndiffs/internal/core"
	"hitsndiffs/internal/durable"
	"hitsndiffs/internal/mat"
	"hitsndiffs/internal/response"
	"hitsndiffs/internal/serve"
)

// The traced run has two replays after one set-up, each replaying the
// workload's scripts from the same seed. They run in alternating time
// slices (traceRounds rounds of one serve slice and one ladder slice), so
// both see the machine in the same state and the stage reconciliation
// compares like with like:
//
//   - serve replay: the clients' requests go through
//     serve.Server.Handler().ServeHTTP on recorders, with the workload's
//     client concurrency. Blocks of traceBlock requests alternate between
//     untraced and traced (a span around each ServeHTTP), so the two
//     throughputs compare the same state evolution and their ratio is the
//     tracing overhead.
//   - ladder replay: one goroutine replays the clients' requests, merged
//     round-robin, against the benchmark's own copies of each layer — a
//     plain Engine, a ShardedEngine with durable logs on every shard, and
//     the stages of one HnD-power re-rank called one by one (COW clone,
//     normalized encoding, Update, certification, warm solve, orientation,
//     JSON). Spans sit around each call, in this file only.
//
// Times are means per call. Counts come from the layers' own counters.
const (
	traceBlock = 32
	// serveShare is the share of -seconds the serve replay gets; the
	// ladder replay, which does several layers' work per request, gets
	// the rest.
	serveShare = 0.4
	// traceRounds is the number of serve/ladder slice pairs.
	traceRounds = 10
	// ladderShards is the ladder's shard count where the workload's server
	// is unsharded.
	ladderShards = 4
)

// span is one recorded interval; parent indexes the enclosing span in
// the same tracer (-1 for none).
type span struct {
	name   string
	parent int
	start  time.Duration
	dur    time.Duration
}

// tracer keeps one replay goroutine's spans in memory. Spans open and
// close on that goroutine; record adds finished child spans from
// goroutines the traced call starts (a sharded write's per-shard WAL
// appends). A nil tracer records nothing, which is how warm-up requests
// run untraced.
type tracer struct {
	origin time.Time

	mu      sync.Mutex
	spans   []span
	current int // innermost open span, -1 for none
}

func newTracer(origin time.Time) *tracer { return &tracer{origin: origin, current: -1} }

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: t.current, start: time.Since(t.origin)})
	t.current = len(t.spans) - 1
	return t.current
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].dur = time.Since(t.origin) - t.spans[i].start
	t.current = t.spans[i].parent
}

// record adds a finished span under the innermost open one.
func (t *tracer) record(name string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: t.current, start: start.Sub(t.origin), dur: d})
}

// totals sums, per span name, the call count and the self time: each
// span's duration minus the part its child spans cover.
func totals(tracers ...*tracer) map[string]agg {
	out := map[string]agg{}
	for _, t := range tracers {
		self := make([]time.Duration, len(t.spans))
		for i, s := range t.spans {
			self[i] += s.dur
			if s.parent >= 0 {
				self[s.parent] -= s.dur
			}
		}
		for i, s := range t.spans {
			a := out[s.name]
			a.n++
			a.self += self[i]
			out[s.name] = a
		}
	}
	return out
}

// agg is one span name's call count and summed self time.
type agg struct {
	n    int
	self time.Duration
}

// meanMs is the mean self time per call in ms (0 without calls).
func (a agg) meanMs() float64 {
	if a.n == 0 {
		return 0
	}
	return float64(a.self) / float64(a.n) / float64(time.Millisecond)
}

func (a agg) totalMs() float64 { return float64(a.self) / float64(time.Millisecond) }

// runTraced is the per-layer run.
func runTraced(w *workload, tds []*tenantData, o options) (*report, error) {
	rep := &report{w: w, seed: o.seed, trace: true, metrics: map[string]float64{}}
	pristine, dataDir := filepath.Join(o.workdir, "pristine"), filepath.Join(o.workdir, "data")
	if w.durable {
		if err := writePristine(w, tds, pristine); err != nil {
			return nil, fmt.Errorf("write data directory: %w", err)
		}
	}
	var setupCounts phaseCounts
	e, _, err := setup(w, tds, pristine, dataDir, &setupCounts)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	rep.phase("setup", setupCounts)

	st := newState(tds)
	ck := &checker{w: w, tds: tds}
	sr := newServeReplay(e, tds, st, ck, o.seed)
	lr, err := newLadderReplay(w, tds, o)
	if err != nil {
		e.close()
		return nil, err
	}
	defer lr.close()
	slice := func(share float64) time.Duration {
		return time.Duration(o.seconds * share / traceRounds * float64(time.Second))
	}
	for i := 0; i < traceRounds; i++ {
		sr.run(slice(serveShare), o.maxRequests)
		if err := lr.run(slice(1 - serveShare)); err != nil {
			e.close()
			return nil, err
		}
	}
	so := sr.result()
	rep.phase("serve-warmup", so.warmup)
	rep.phase("serve-replay", so.counts)
	rep.count(so.warmup, so.counts)
	if _, err := finalCheck(e, tds, st, ck, rep, dataDir); err != nil {
		return nil, err
	}
	lo, err := lr.finish()
	if err != nil {
		return nil, err
	}
	rep.violations = append(rep.violations, lo.violations...)
	rep.notes = append(rep.notes, fmt.Sprintf("serve replay: %.2fs; ladder replay: %d requests (%d ranks) in %.2fs; %d rounds",
		so.busy.Seconds(), lo.requests, lo.rankRequests, lo.elapsed.Seconds(), traceRounds))

	m := rep.metrics
	sv := totals(so.tracers...)
	m["serve.rank_handler_ms"] = sv["serve.rank_handler"].meanMs()
	m["serve.observe_handler_ms"] = sv["serve.observe_handler"].meanMs()
	m["serve.coalesced_ratio"] = so.coalescedRatio
	m["serve.stale_ratio"] = so.staleRatio
	m["refresh.refreshes_per_s"] = so.refreshesPerS
	m["refresh.mean_staleness"] = so.meanStaleness
	m["trace.untraced_rps"] = so.untracedRPS
	m["trace.traced_rps"] = so.tracedRPS
	m["trace.overhead_pct"] = 100 * (1 - so.tracedRPS/so.untracedRPS)
	for k, v := range lo.metrics {
		m[k] = v
	}

	// Stage reconciliation, per rank request: the ladder's stage self
	// times against the served write(s)-then-rank and against the engine.
	la := totals(lo.tracer)
	perRank := func(names ...string) float64 {
		var s float64
		for _, n := range names {
			s += la[n].totalMs()
		}
		return s / float64(max(lo.rankRequests, 1))
	}
	ladder := perRank("response.clone", "response.encode", "core.update", "core.certify", "core.solve", "core.orient", "serve.encode")
	noJSON := ladder - perRank("serve.encode")
	engine := perRank("engine.observe", "engine.rank")
	served := (sv["serve.observe_handler"].totalMs() + sv["serve.rank_handler"].totalMs()) / float64(max(so.tracedRanks, 1))
	m["reconcile.ladder_ms"] = ladder
	m["reconcile.served_ms"] = served
	m["reconcile.residual_pct"] = 100 * (served - ladder) / served
	m["reconcile.engine_ms"] = engine
	m["reconcile.engine_residual_pct"] = 100 * (engine - noJSON) / engine
	rep.notes = append(rep.notes, fmt.Sprintf(
		"reconciliation per rank request: ladder %.3f ms vs served %.3f ms (residual %+.1f%%, tolerance ±%.0f%% on write-rank); engine %.3f ms vs ladder without JSON %.3f ms (residual %+.1f%%)",
		ladder, served, m["reconcile.residual_pct"], reconcileTolPct, engine, noJSON, m["reconcile.engine_residual_pct"]))
	if w.name == "write-rank" && math.Abs(m["reconcile.residual_pct"]) > reconcileTolPct {
		rep.violations = append(rep.violations, fmt.Sprintf("stage reconciliation residual %+.1f%% is outside ±%.0f%%",
			m["reconcile.residual_pct"], reconcileTolPct))
	}
	rep.notes = append(rep.notes, fmt.Sprintf("tracing overhead: traced %.1f rps vs untraced %.1f rps (%+.2f%%)",
		so.tracedRPS, so.untracedRPS, m["trace.overhead_pct"]))
	rep.notes = append(rep.notes, fmt.Sprintf("solve vs power steps: core.solve_ms %.3f vs core.iterations × mat.matvec_pair_us = %.3f ms",
		m["core.solve_ms"], m["core.iterations"]*m["mat.matvec_pair_us"]/1000))
	return rep, nil
}

// reconcileTolPct is the tolerance of the write-rank stage
// reconciliation: the ladder's stage self times sum to within this share
// of the served write-then-rank time, or the traced run fails its gate.
const reconcileTolPct = 25.0

// serveOut is what the serve replay measured.
type serveOut struct {
	tracers                      []*tracer
	warmup, counts               phaseCounts
	busy                         time.Duration
	tracedRPS, untracedRPS       float64
	tracedRanks                  int
	coalescedRatio, staleRatio   float64
	refreshesPerS, meanStaleness float64
}

// serveReplay replays the clients' scripts through the server's handler,
// one time slice at a time; each client's script and counters carry over
// from slice to slice.
type serveReplay struct {
	e       *env
	h       http.Handler
	tds     []*tenantData
	st      *state
	ck      *checker
	before  serve.Snapshot
	clients []*serveClient
	busy    time.Duration // summed slice time
}

// serveClient is one replayed client.
type serveClient struct {
	sc                     *script
	tr                     *tracer
	n                      int // scripted requests replayed after warm-up
	warmup, counts         phaseCounts
	tracedN, untracedN     int
	tracedDur, untracedDur time.Duration
	ranks                  int
}

// newServeReplay sends every client's untraced warm-up requests.
func newServeReplay(e *env, tds []*tenantData, st *state, ck *checker, seed int64) *serveReplay {
	r := &serveReplay{e: e, h: e.srv.Handler(), tds: tds, st: st, ck: ck}
	origin := time.Now()
	for cl := 0; cl < e.w.clients; cl++ {
		c := &serveClient{sc: newScript(e.w, tds, seed, cl), tr: newTracer(origin)}
		for i := 0; i < warmupRequests; i++ {
			handle(r.h, tds, st, ck, c.sc.next(), nil, &c.warmup)
		}
		r.clients = append(r.clients, c)
	}
	r.before = e.srv.Snapshot()
	return r
}

// run replays the clients concurrently for one slice, each stopping at
// the first block boundary past the slice or at maxRequests (0 = no cap).
func (r *serveReplay) run(d time.Duration, maxRequests int) {
	began := time.Now()
	deadline := began.Add(d)
	var wg sync.WaitGroup
	for _, c := range r.clients {
		wg.Add(1)
		go func(c *serveClient) {
			defer wg.Done()
			for ; maxRequests == 0 || c.n < maxRequests; c.n++ {
				if c.n%traceBlock == 0 && time.Now().After(deadline) {
					break
				}
				traced := (c.n/traceBlock)%2 == 1
				req := c.sc.next()
				var tr *tracer
				if traced {
					tr = c.tr
				}
				t0 := time.Now()
				handle(r.h, r.tds, r.st, r.ck, req, tr, &c.counts)
				d := time.Since(t0)
				if traced {
					c.tracedN++
					c.tracedDur += d
					if !req.isWrite() {
						c.ranks++
					}
				} else {
					c.untracedN++
					c.untracedDur += d
				}
			}
		}(c)
	}
	wg.Wait()
	r.busy += time.Since(began)
}

// result sums the clients and reads the server's counters.
func (r *serveReplay) result() serveOut {
	res := serveOut{busy: r.busy}
	for _, c := range r.clients {
		res.tracers = append(res.tracers, c.tr)
		res.warmup.add(c.warmup)
		res.counts.add(c.counts)
		if c.tracedDur > 0 {
			res.tracedRPS += float64(c.tracedN) / c.tracedDur.Seconds()
		}
		if c.untracedDur > 0 {
			res.untracedRPS += float64(c.untracedN) / c.untracedDur.Seconds()
		}
		res.tracedRanks += c.ranks
	}
	after := r.e.srv.Snapshot()
	before := r.before
	leaders := after.RankLeaders - before.RankLeaders
	coalesced := after.RankCoalesced - before.RankCoalesced
	if ranks := leaders + coalesced; ranks > 0 {
		res.coalescedRatio = float64(coalesced) / float64(ranks)
		res.staleRatio = float64(after.StaleServes-before.StaleServes) / float64(ranks)
	}
	if after.Refresh != nil && before.Refresh != nil && r.busy > 0 {
		res.refreshesPerS = float64(after.Refresh.Refreshes-before.Refresh.Refreshes) / r.busy.Seconds()
	}
	ck := r.ck
	ck.mu.Lock()
	if ck.ranks > 0 {
		res.meanStaleness = ck.staleSum / float64(ck.ranks)
	}
	ck.mu.Unlock()
	return res
}

// handle serves one scripted request in-process; with a tracer, the
// ServeHTTP call is a span.
func handle(h http.Handler, tds []*tenantData, st *state, ck *checker, r request, tr *tracer, counts *phaseCounts) {
	body, err := json.Marshal(r.payload(tds))
	if err != nil {
		counts.sent++
		counts.failed++
		return
	}
	req := httptest.NewRequest(http.MethodPost, r.path(), bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	name := "serve.rank_handler"
	if r.isWrite() {
		name = "serve.observe_handler"
	}
	counts.sent++
	sp := tr.begin(name)
	h.ServeHTTP(rec, req)
	tr.end(sp)
	if rec.Code/100 != 2 {
		counts.failed++
		return
	}
	counts.ok++
	if r.isWrite() {
		st.apply(r.tenant, r.obs)
	} else {
		ck.rankBody(r, rec.Body.Bytes())
	}
}

// mirror is the ladder replay's copy of one tenant in every layer.
type mirror struct {
	td     *tenantData
	eng    *hitsndiffs.Engine
	sh     *hitsndiffs.ShardedEngine
	logs   []*durable.Log
	dirs   []string
	geoms  []durable.Geometry
	shards [][]int // global users of each shard

	// The stage-by-stage re-rank: the ladder's own matrix, flagged shared
	// after every solve (the engine's copy-on-write rule), its warm start
	// and pooled solve buffers.
	m             *response.Matrix
	shared, dirty bool
	shardsDirty   bool
	warm          []float64
	sc            core.SolveScratch
	opt, us       mat.Vector
	ts            mat.TScratch
	sinceSnapshot int
	every         int // snapshot cadence in observations
	writes, obs   int
}

// ladderOut is what the ladder replay measured.
type ladderOut struct {
	tracer                 *tracer
	metrics                map[string]float64
	violations             []string
	requests, rankRequests int
	elapsed                time.Duration
}

// newMirror builds one tenant's mirrors at the post-set-up state: a
// plain Engine ranked once, the ladder matrix solved once (cold, as the
// engine's first rank), and a ShardedEngine recovered from per-shard logs
// that start at a snapshot of the preload, as the server recovers them.
func newMirror(ctx context.Context, w *workload, td *tenantData, dir string, tr **tracer) (*mirror, error) {
	m0 := td.preloadMatrix()
	mr := &mirror{td: td, m: m0.Clone(), every: w.snapshotCadence()}
	var err error
	if mr.eng, err = hitsndiffs.NewEngine(m0); err != nil {
		return nil, err
	}
	res, err := mr.eng.Rank(ctx)
	if err != nil {
		return nil, err
	}
	cold, err := core.HNDPower{Opts: core.Options{Update: core.NewUpdate(mr.m), Scratch: &mr.sc}}.Rank(ctx, mr.m)
	if err != nil {
		return nil, err
	}
	mr.warm = append([]float64(nil), cold.Scores...)
	mr.shared = true
	if d := scoreDistance(mr.warm, res.Scores); d > ladderTol {
		return nil, fmt.Errorf("tenant %s: the ladder's cold solve differs from the engine's by %.3g", td.name, d)
	}
	mr.opt = mat.NewVector(mr.m.TotalOptions())
	mr.us = mat.NewVector(td.spec.users)

	shards := w.shards
	if shards <= 1 {
		shards = ladderShards
	}
	if mr.sh, err = hitsndiffs.NewShardedEngine(m0, hitsndiffs.WithShards(shards)); err != nil {
		return nil, err
	}
	views, _ := mr.sh.View()
	for sh, view := range views {
		d := filepath.Join(dir, td.name, fmt.Sprintf("shard-%03d", sh))
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
		if _, err := durable.WriteSnapshotInto(d, view); err != nil {
			return nil, err
		}
		geom := durable.Geometry{Users: view.Users(), Items: td.spec.items, Options: []int{td.spec.options}}
		l, rec, _, err := durable.Open(d, geom, ladderFsync)
		if err != nil {
			return nil, err
		}
		if err := mr.sh.RestoreShard(sh, rec); err != nil {
			l.Close()
			return nil, err
		}
		hook := func(gen uint64, obs []hitsndiffs.Observation) error {
			ops := make([]durable.Op, len(obs))
			for i, o := range obs {
				ops[i] = durable.Op{User: o.User, Item: o.Item, Option: o.Option}
			}
			start := time.Now()
			err := l.Append(gen, ops)
			(*tr).record("durable.append", start, time.Since(start))
			return err
		}
		if err := mr.sh.SetShardDurability(sh, hook); err != nil {
			l.Close()
			return nil, err
		}
		mr.logs = append(mr.logs, l)
		mr.dirs = append(mr.dirs, d)
		mr.geoms = append(mr.geoms, geom)
		mr.shards = append(mr.shards, mr.sh.UsersOf(sh))
	}
	if _, err := mr.sh.RankAll(ctx); err != nil {
		return nil, err
	}
	return mr, nil
}

// ladderTol bounds the ladder's stage-by-stage scores against the
// engine's: they run the same floating-point sequence, so they agree
// exactly unless the ladder no longer calls what the engine calls.
const ladderTol = 1e-12

// write replays one acknowledged write through every mirror.
func (mr *mirror) write(tr *tracer, obs []serve.Observation) error {
	hobs := make([]hitsndiffs.Observation, len(obs))
	for i, o := range obs {
		hobs[i] = hitsndiffs.Observation{User: o.User, Item: o.Item, Option: o.Option}
	}
	sp := tr.begin("engine.observe")
	err := mr.eng.ObserveBatch(hobs)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("sharding.observe")
	err = mr.sh.ObserveBatch(hobs)
	tr.end(sp)
	if err != nil {
		return err
	}
	mr.shardsDirty = true
	if mr.shared {
		sp = tr.begin("response.clone")
		mr.m = mr.m.Clone()
		tr.end(sp)
		mr.shared = false
	}
	for _, o := range obs {
		mr.m.SetAnswer(o.User, o.Item, o.Option)
	}
	mr.dirty = true
	mr.writes++
	mr.obs += len(obs)
	mr.sinceSnapshot += len(obs)
	if mr.sinceSnapshot >= mr.every {
		return mr.snapshot(tr)
	}
	return nil
}

// snapshot checkpoints every shard log from copy-on-write views.
func (mr *mirror) snapshot(tr *tracer) error {
	mr.sinceSnapshot = 0
	views, _ := mr.sh.View()
	for i, l := range mr.logs {
		sp := tr.begin("durable.snapshot")
		err := l.WriteSnapshot(views[i])
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	return nil
}

// rankCounters accumulates the ladder's per-rank counts.
type rankCounters struct {
	ladderRanks, solves, iterations        int
	csrFull, csrDelta, normFull, normDelta uint64
}

// rank replays one tenant's rank through every mirror and returns the
// engine's result (what the server would encode).
func (mr *mirror) rank(ctx context.Context, tr *tracer, rc *rankCounters) (hitsndiffs.Result, error) {
	sp := tr.begin("engine.rank")
	res, err := mr.eng.Rank(ctx)
	tr.end(sp)
	if err != nil {
		return res, err
	}
	if mr.dirty {
		scores, err := mr.stages(ctx, tr, rc)
		if err != nil {
			return res, err
		}
		if d := scoreDistance(scores, res.Scores); d > ladderTol {
			return res, fmt.Errorf("tenant %s: ladder scores differ from the engine's by %.3g", mr.td.name, d)
		}
	}
	if mr.shardsDirty {
		mr.shardsDirty = false
		for _, name := range []string{"core.batch_solve", "sharding.rank_all"} {
			sp := tr.begin(name)
			_, err := mr.sh.RankAll(ctx)
			tr.end(sp)
			if err != nil {
				return res, err
			}
		}
		sp := tr.begin("sharding.rank")
		_, err := mr.sh.Rank(ctx)
		tr.end(sp)
		if err != nil {
			return res, err
		}
	}
	return res, nil
}

// stages runs one warm re-rank stage by stage, as Engine.Rank does on a
// cache miss: normalized encoding of the written matrix, the Update over
// it, the certification attempt and, when it is rejected, the warm solve
// and orientation.
func (mr *mirror) stages(ctx context.Context, tr *tracer, rc *rankCounters) ([]float64, error) {
	m := mr.m
	cf0, cd0 := m.CSRRebuilds()
	nf0, nd0 := m.NormRebuilds()
	sp := tr.begin("response.encode")
	m.NormalizedDelta()
	tr.end(sp)
	sp = tr.begin("core.update")
	u := core.NewUpdate(m)
	tr.end(sp)
	cf1, cd1 := m.CSRRebuilds()
	nf1, nd1 := m.NormRebuilds()
	rc.csrFull += cf1 - cf0
	rc.csrDelta += cd1 - cd0
	rc.normFull += nf1 - nf0
	rc.normDelta += nd1 - nd0
	rc.ladderRanks++

	// One transpose + row mat-vec pair over the normalized forms, the
	// body of every power step.
	sp = tr.begin("mat.matvec_pair")
	u.Ccol.MulVecTPar(mr.opt, mr.warm, u.Workers(), &mr.ts)
	u.Crow.MulVecPar(mr.us, mr.opt, u.Workers())
	tr.end(sp)

	sp = tr.begin("core.certify")
	cert, err := core.HNDPower{Opts: core.Options{WarmStart: mr.warm, Update: u, Scratch: &mr.sc}}.CertifyWarm(ctx, m)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	var scores []float64
	if cert.Certified {
		scores = append(mr.warm[:0], cert.Result.Scores...)
	} else {
		sp = tr.begin("core.solve")
		res, err := core.HNDPower{Opts: core.Options{WarmStart: mr.warm, Update: u, Scratch: &mr.sc, SkipOrientation: true}}.Rank(ctx, m)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		rc.solves++
		rc.iterations += res.Iterations
		sp = tr.begin("core.orient")
		oriented, _ := core.OrientByDecileEntropy(res.Scores, m)
		tr.end(sp)
		scores = append(mr.warm[:0], oriented...)
	}
	mr.warm = scores
	mr.shared = true
	mr.dirty = false
	return scores, nil
}

// ladderReplay replays the merged scripts against fresh mirrors, one time
// slice at a time.
type ladderReplay struct {
	ctx      context.Context
	tds      []*tenantData
	mirrors  []*mirror
	scripts  []*script
	tr       *tracer // nil while building mirrors and warming up
	rc       rankCounters
	enc      bytes.Buffer
	base     []hitsndiffs.EngineMetrics
	maxTotal int // cap on replayed requests (0 = none)
	out      ladderOut
}

// newLadderReplay builds the mirrors and replays the untraced warm-up.
func newLadderReplay(w *workload, tds []*tenantData, o options) (*ladderReplay, error) {
	l := &ladderReplay{ctx: context.Background(), tds: tds, maxTotal: o.maxRequests * w.clients,
		out: ladderOut{metrics: map[string]float64{}}}
	dir := filepath.Join(o.workdir, "ladder")
	for _, td := range tds {
		mr, err := newMirror(l.ctx, w, td, dir, &l.tr)
		if err != nil {
			l.close()
			return nil, fmt.Errorf("ladder mirror %s: %w", td.name, err)
		}
		l.mirrors = append(l.mirrors, mr)
	}
	for cl := 0; cl < w.clients; cl++ {
		l.scripts = append(l.scripts, newScript(w, tds, o.seed, cl))
	}
	for i := 0; i < warmupRequests; i++ {
		for _, sc := range l.scripts {
			if err := l.step(sc.next()); err != nil {
				l.close()
				return nil, err
			}
		}
	}
	for _, mr := range l.mirrors {
		l.base = append(l.base, mr.eng.Metrics())
	}
	l.rc = rankCounters{}
	l.tr = newTracer(time.Now())
	return l, nil
}

// close closes every mirror's shard logs.
func (l *ladderReplay) close() {
	for _, mr := range l.mirrors {
		for _, lg := range mr.logs {
			if lg != nil {
				lg.Close()
			}
		}
		mr.logs = nil
	}
}

// step replays one request through every mirror.
func (l *ladderReplay) step(r request) error {
	if r.isWrite() {
		return l.mirrors[r.tenant].write(l.tr, r.obs)
	}
	mr := l.mirrors[r.tenant]
	res, err := mr.rank(l.ctx, l.tr, &l.rc)
	if err != nil {
		return err
	}
	// Encode what the server would send.
	v := serve.RankResponse{Version: mr.eng.Version(), Generation: res.Generation,
		Staleness: res.Staleness, Scores: res.Scores, Iterations: res.Iterations, Converged: res.Converged}
	l.enc.Reset()
	sp := l.tr.begin("serve.encode")
	err = json.NewEncoder(&l.enc).Encode(v)
	l.tr.end(sp)
	return err
}

// run replays the merged scripts, round-robin over clients, for one slice.
func (l *ladderReplay) run(d time.Duration) error {
	began := time.Now()
	for ; l.maxTotal == 0 || l.out.requests < l.maxTotal; l.out.requests++ {
		if time.Since(began) > d {
			break
		}
		r := l.scripts[l.out.requests%len(l.scripts)].next()
		if err := l.step(r); err != nil {
			return err
		}
		if !r.isWrite() {
			l.out.rankRequests++
		}
	}
	l.out.elapsed += time.Since(began)
	return nil
}

// finish checkpoints, recovers and checks the mirrors and computes the
// ladder's metrics.
func (l *ladderReplay) finish() (ladderOut, error) {
	out, mirrors, tr := &l.out, l.mirrors, l.tr
	var em hitsndiffs.EngineMetrics
	for t, mr := range mirrors {
		cur := mr.eng.Metrics()
		em.CacheHits += cur.CacheHits - l.base[t].CacheHits
		em.CacheMisses += cur.CacheMisses - l.base[t].CacheMisses
		em.CertifiedHits += cur.CertifiedHits - l.base[t].CertifiedHits
		em.CertifiedFallbacks += cur.CertifiedFallbacks - l.base[t].CertifiedFallbacks
	}
	// Every replay ends with a checkpoint, so snapshot time is measured on
	// workloads whose writes never reach the cadence. Recovery then replays
	// a WAL tail appended past it, of the size a server restart replays.
	var writes, obs int
	var fsyncs, bytesN uint64
	for _, mr := range mirrors {
		if err := mr.snapshot(tr); err != nil {
			return *out, err
		}
		writes += mr.writes
		obs += mr.obs
		for _, lg := range mr.logs {
			s := lg.Stats()
			fsyncs += s.Fsyncs
			bytesN += s.AppendedBytes
		}
	}
	for _, mr := range mirrors {
		if err := mr.appendRestartTail(); err != nil {
			return *out, err
		}
	}
	recoverS, err := reopenMirrors(mirrors, tr, out)
	if err != nil {
		return *out, err
	}

	rc := l.rc
	ag := totals(tr)
	m := out.metrics
	for _, name := range []string{"engine.observe", "engine.rank", "serve.encode", "response.clone", "response.encode",
		"core.update", "core.certify", "core.solve", "core.orient", "core.batch_solve", "durable.append",
		"durable.snapshot", "sharding.rank", "sharding.rank_all"} {
		m[name+"_ms"] = ag[name].meanMs()
	}
	m["mat.matvec_pair_us"] = ag["mat.matvec_pair"].meanMs() * 1000
	m["engine.cache_hits"] = float64(em.CacheHits)
	m["engine.cache_misses"] = float64(em.CacheMisses)
	m["engine.certified_hits"] = float64(em.CertifiedHits)
	m["engine.certified_fallbacks"] = float64(em.CertifiedFallbacks)
	m["engine.cache_hit_ratio"] = ratio(em.CacheHits, em.CacheHits+em.CacheMisses)
	m["engine.certified_hit_ratio"] = ratio(em.CertifiedHits, em.CertifiedHits+em.CertifiedFallbacks)
	lr := uint64(max(rc.ladderRanks, 1))
	m["response.csr_rebuilds_full"] = ratio(rc.csrFull, lr)
	m["response.csr_rebuilds_delta"] = ratio(rc.csrDelta, lr)
	m["response.norm_rebuilds_full"] = ratio(rc.normFull, lr)
	m["response.norm_rebuilds_delta"] = ratio(rc.normDelta, lr)
	m["core.iterations"] = ratio(uint64(rc.iterations), uint64(max(rc.solves, 1)))
	m["durable.fsyncs_per_write"] = ratio(fsyncs, uint64(max(writes, 1)))
	m["durable.bytes_per_obs"] = ratio(bytesN, uint64(max(obs, 1)))
	m["durable.recover_s"] = recoverS
	out.tracer = tr
	return *out, nil
}

// appendRestartTail appends to the shard logs, untimed and past their
// last checkpoint, the WAL tail a restart of the durable workload's server
// replays: the tenant's restartTail cells with their pass-0 answers, in
// preloadBatch batches split by shard as the sharded write path splits
// them. The ladder's matrix takes the same answers, so the reopened logs
// must still equal it.
func (mr *mirror) appendRestartTail() error {
	if mr.shared {
		mr.m = mr.m.Clone()
		mr.shared = false
	}
	views, _ := mr.sh.View()
	gens := make([]uint64, len(views))
	for i, v := range views {
		gens[i] = v.Generation()
	}
	ops := make([][]durable.Op, len(views))
	tail := mr.td.restartTail()
	for len(tail) > 0 {
		n := min(len(tail), preloadBatch)
		for i := range ops {
			ops[i] = ops[i][:0]
		}
		for _, c := range tail[:n] {
			opt := mr.td.answer(c, 0)
			sh, local := mr.sh.LocalFor(int(c.user))
			ops[sh] = append(ops[sh], durable.Op{User: local, Item: int(c.item), Option: opt})
			mr.m.SetAnswer(int(c.user), int(c.item), opt)
		}
		for i, l := range mr.logs {
			if err := l.Append(gens[i], ops[i]); err != nil {
				return fmt.Errorf("tenant %s shard %d: append restart tail: %w", mr.td.name, i, err)
			}
			gens[i] += uint64(len(ops[i]))
		}
		tail = tail[n:]
	}
	return nil
}

// reopenMirrors closes every mirror's shard logs, reopens them (the
// recovery a restart pays: the last snapshot plus the WAL tail, timed per
// tenant) and checks the recovered matrices against the ladder's own
// matrix. It returns the mean recovery time per tenant in seconds.
func reopenMirrors(mirrors []*mirror, tr *tracer, out *ladderOut) (float64, error) {
	var total time.Duration
	for _, mr := range mirrors {
		for i, l := range mr.logs {
			if err := l.Close(); err != nil {
				return 0, err
			}
			mr.logs[i] = nil
		}
		start := time.Now()
		for i, d := range mr.dirs {
			sp := tr.begin("durable.recover")
			l, rec, _, err := durable.Open(d, mr.geoms[i], ladderFsync)
			tr.end(sp)
			if err != nil {
				return 0, fmt.Errorf("reopen %s: %w", d, err)
			}
			mr.logs[i] = l
			if !sameRows(rec, mr.m, mr.shards[i]) {
				out.violations = append(out.violations, fmt.Sprintf("tenant %s shard %d: recovered log differs from the replayed writes", mr.td.name, i))
			}
		}
		total += time.Since(start)
	}
	return total.Seconds() / float64(len(mirrors)), nil
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
