package hitsndiffs

import (
	"context"
	"math"
	"strings"
	"testing"
)

// tenantWorkloads builds n independent tenant matrices of slightly varying
// shapes.
func tenantWorkloads(t testing.TB, n int, seed int64) []*ResponseMatrix {
	t.Helper()
	out := make([]*ResponseMatrix, n)
	for i := range out {
		out[i] = engineWorkload(t, 40+5*(i%3), 30, seed+int64(i))
	}
	return out
}

// tenantEngines wraps tenantWorkloads in one Engine per tenant.
func tenantEngines(t testing.TB, n int, seed int64, opts ...EngineOption) []*Engine {
	t.Helper()
	engines := make([]*Engine, n)
	for i, m := range tenantWorkloads(t, n, seed) {
		eng, err := NewEngine(m, opts...)
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = eng
	}
	return engines
}

func scoresEqualBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestRankBatchMatchesIndividualSolves: the packed refresh path — every
// stale engine in one core.BatchRanker.RankBatch call via RefreshEngines —
// must be bitwise identical (serial kernels) to ranking every tenant alone
// with the same method and options.
func TestRankBatchMatchesIndividualSolves(t *testing.T) {
	ctx := context.Background()
	tenants := tenantWorkloads(t, 5, 11)
	base := []Option{WithSeed(2), WithParallelism(1)}
	engines := make([]*Engine, len(tenants))
	for i, m := range tenants {
		eng, err := NewEngine(m, WithRankOptions(base...))
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = eng
	}
	got, err := RefreshEngines(ctx, engines)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(tenants) {
		t.Fatalf("got %d results for %d tenants", len(got), len(tenants))
	}
	for i, m := range tenants {
		want, err := HND(base...).Rank(ctx, m)
		if err != nil {
			t.Fatal(err)
		}
		if !scoresEqualBits(got[i].Scores, want.Scores) {
			t.Fatalf("tenant %d: packed scores differ from solo solve", i)
		}
	}
}

// TestRankBatchCachePerTenantVersion: on the packed refresh path, unchanged
// engines are served from their own caches; a written engine — and only
// it — re-solves, warm-started. Results are caller-owned.
func TestRankBatchCachePerTenantVersion(t *testing.T) {
	ctx := context.Background()
	engines := tenantEngines(t, 4, 23, WithRankOptions(WithSeed(3)))
	solves := func() []uint64 {
		out := make([]uint64, len(engines))
		for i, e := range engines {
			out[i] = e.Metrics().CacheMisses
		}
		return out
	}
	first, err := RefreshEngines(ctx, engines)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range solves() {
		if n != 1 {
			t.Fatalf("cold refresh solved tenant %d %d times, want 1", i, n)
		}
	}

	again, err := RefreshEngines(ctx, engines)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range solves() {
		if n != 1 {
			t.Fatalf("unchanged tenant %d re-solved (%d solves, want 1)", i, n)
		}
		if !scoresEqualBits(first[i].Scores, again[i].Scores) {
			t.Fatalf("tenant %d: cached result differs", i)
		}
	}

	// Write one tenant: exactly one re-solve, warm-started (fewer
	// iterations than its cold solve).
	if err := engines[2].Observe(0, 0, 0); err != nil {
		t.Fatal(err)
	}
	third, err := RefreshEngines(ctx, engines)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range solves() {
		if want := map[bool]uint64{true: 2, false: 1}[i == 2]; n != want {
			t.Fatalf("single-tenant write: tenant %d has %d solves, want %d", i, n, want)
		}
	}
	if third[2].Iterations >= first[2].Iterations {
		t.Fatalf("re-solve not warm-started: %d iterations vs cold %d",
			third[2].Iterations, first[2].Iterations)
	}
	// Result slices are caller-owned: scribbling on one must not corrupt
	// the cache.
	third[0].Scores[0] = 1e9
	third[2].Scores[0] = 1e9
	fourth, err := RefreshEngines(ctx, engines)
	if err != nil {
		t.Fatal(err)
	}
	if fourth[0].Scores[0] == 1e9 || fourth[2].Scores[0] == 1e9 {
		t.Fatal("cache shares score slices with callers")
	}
}

// TestRankBatchDuplicateAndFallback covers duplicated engines (solved once,
// each entry its own score slice) and the concurrent fallback for methods
// without a batched form.
func TestRankBatchDuplicateAndFallback(t *testing.T) {
	ctx := context.Background()
	m := engineWorkload(t, 30, 20, 5)
	mk := func(method string) *Engine {
		eng, err := NewEngine(m, WithMethod(method), WithRankOptions(WithSeed(1), WithParallelism(1)))
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	hits, packed := mk("HITS"), mk("HnD-power")
	res, err := RefreshEngines(ctx, []*Engine{hits, packed, hits, packed})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []*Engine{hits, packed} {
		if n := e.Metrics().CacheMisses; n != 1 {
			t.Fatalf("duplicated %s engine solved %d times, want 1", e.Method(), n)
		}
	}
	for i, e := range []*Engine{hits, packed} {
		if !scoresEqualBits(res[i].Scores, res[i+2].Scores) {
			t.Fatalf("duplicated %s entries disagree", e.Method())
		}
		res[i+2].Scores[0] = 1e9
		if res[i].Scores[0] == 1e9 {
			t.Fatalf("duplicated %s entries share a score slice", e.Method())
		}
	}
	want, err := New("HITS", WithSeed(1), WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	wres, err := want.Rank(ctx, m)
	if err != nil {
		t.Fatal(err)
	}
	if !scoresEqualBits(res[0].Scores, wres.Scores) {
		t.Fatal("fallback result differs from direct HITS solve")
	}
}

// TestRankBatchErrorNamesCallerIndex: a failing engine must be named by its
// position in the caller's slice, not its position inside the stale-only
// set the packed solve actually ranks.
func TestRankBatchErrorNamesCallerIndex(t *testing.T) {
	ctx := context.Background()
	mk := func(m *ResponseMatrix) *Engine {
		eng, err := NewEngine(m, WithRankOptions(WithSeed(1)))
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	good := mk(engineWorkload(t, 20, 10, 1))
	bad := mk(NewResponseMatrix(5, 3, 2)) // nobody answered anything
	// Cache the good engine so the failing call's stale set holds only the
	// bad one (packed index 0, caller index 2).
	if _, err := RefreshEngines(ctx, []*Engine{good}); err != nil {
		t.Fatal(err)
	}
	_, err := RefreshEngines(ctx, []*Engine{good, good, bad})
	if err == nil || !strings.Contains(err.Error(), "engine 2") {
		t.Fatalf("want error naming engine 2, got %v", err)
	}
}

// TestObserveRankAvoidsFullCSRRebuild is the delta-aware acceptance
// criterion: after the engine's first solve, a single-user Observe followed
// by a Rank must rebuild only the touched rows of the memoized one-hot CSR
// — the full-assembly counter stays at one, under an outstanding
// copy-on-write snapshot included.
func TestObserveRankAvoidsFullCSRRebuild(t *testing.T) {
	ctx := context.Background()
	eng, err := NewEngine(engineWorkload(t, 120, 60, 9), WithRankOptions(WithSeed(4)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Rank(ctx); err != nil {
		t.Fatal(err)
	}
	view, _ := eng.View() // outstanding snapshot: the next write COW-clones
	if full, _ := view.CSRRebuilds(); full != 1 {
		t.Fatalf("cold rank paid %d full builds, want 1", full)
	}
	for i := 0; i < 3; i++ {
		if err := eng.Observe(7+i, 3, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Rank(ctx); err != nil {
			t.Fatal(err)
		}
	}
	m, _ := eng.View()
	full, delta := m.CSRRebuilds()
	if full != 1 {
		t.Fatalf("single-user writes triggered %d full CSR rebuilds, want 1 (delta=%d)", full, delta)
	}
	if delta != 3 {
		t.Fatalf("expected 3 delta rebuilds, got %d", delta)
	}
	// The outstanding snapshot still serves its original, fully consistent
	// encoding.
	if view.Binary() == nil || view == m {
		t.Fatal("snapshot was not detached by the writes")
	}
}

// TestShardedRankAllBatchedMatchesFanOut: RankAll must return exactly what
// ranking every shard alone through its own Engine returns (serial kernels,
// fixed seed), shard by shard — for the packed HnD-power path and for a
// method without a batched form, whose too-sparse shard reports a flat,
// converged result.
func TestShardedRankAllBatchedMatchesFanOut(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		method string
		sparse bool // retract all but one user of a shard, so it cannot rank
	}{{"HnD-power", false}, {"HITS", true}} {
		t.Run(tc.method, func(t *testing.T) {
			opts := []EngineOption{WithMethod(tc.method), WithRankOptions(WithSeed(5), WithParallelism(1))}
			a, err := NewShardedEngine(engineWorkload(t, 200, 40, 31), append(opts, WithShards(4))...)
			if err != nil {
				t.Fatal(err)
			}
			sparse := -1
			if tc.sparse {
				sparse = (a.ShardFor(0) + 1) % a.Shards()
				var retract []Observation
				for _, u := range a.UsersOf(sparse)[1:] {
					for it := 0; it < a.Items(); it++ {
						retract = append(retract, Observation{User: u, Item: it, Option: Unanswered})
					}
				}
				if err := a.ObserveBatch(retract); err != nil {
					t.Fatal(err)
				}
			}
			views, _ := a.View()
			batched, err := a.RankAll(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if len(batched) != len(views) {
				t.Fatal("shard count mismatch")
			}
			for i, v := range views {
				if i == sparse {
					for _, s := range batched[i].Scores {
						if s != 0 || !batched[i].Converged {
							t.Fatalf("too-sparse shard %d: want a flat converged result, got %+v", i, batched[i])
						}
					}
					continue
				}
				solo, err := NewEngine(v, opts...)
				if err != nil {
					t.Fatal(err)
				}
				want, err := solo.Rank(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if !scoresEqualBits(batched[i].Scores, want.Scores) {
					t.Fatalf("shard %d: RankAll differs from the shard ranked alone", i)
				}
				if batched[i].Iterations != want.Iterations {
					t.Fatalf("shard %d: iteration counts differ", i)
				}
			}

			// After a single-user write, only the owning shard re-solves; the
			// other shards answer from the caches RankAll populated.
			if err := a.Observe(0, 0, 0); err != nil {
				t.Fatal(err)
			}
			sh := a.ShardFor(0)
			before := a.ShardMetrics()
			rebatched, err := a.RankAll(ctx)
			if err != nil {
				t.Fatal(err)
			}
			after := a.ShardMetrics()
			for i := range rebatched {
				if i == sh || i == sparse {
					continue
				}
				if !scoresEqualBits(rebatched[i].Scores, batched[i].Scores) {
					t.Fatalf("unwritten shard %d changed scores after foreign write", i)
				}
				if after[i].CacheMisses != before[i].CacheMisses || after[i].Version != before[i].Version {
					t.Fatalf("unwritten shard %d re-solved or bumped its version", i)
				}
			}
			if after[sh].CacheMisses != before[sh].CacheMisses+1 {
				t.Fatalf("written shard %d: %d solves, want 1", sh, after[sh].CacheMisses-before[sh].CacheMisses)
			}
		})
	}
}
