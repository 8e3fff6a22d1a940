package hitsndiffs

import (
	"context"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"hitsndiffs/internal/core"
)

// goldenWorkload picks a workload every registry method can rank: binary
// items for the binary-only baselines, a consistent (C1P) matrix for BL,
// and the usual noisy 3-option matrix otherwise.
func goldenWorkload(t *testing.T, method string) *ResponseMatrix {
	t.Helper()
	info, ok := Describe(method)
	if !ok {
		t.Fatalf("unknown method %q", method)
	}
	if info.ConsistentOnly {
		cfg := DefaultGeneratorConfig(ModelGRM)
		cfg.Users, cfg.Items, cfg.Seed = 40, 30, 11
		d, err := GenerateConsistent(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return d.Responses
	}
	cfg := DefaultGeneratorConfig(ModelSamejima)
	cfg.Users, cfg.Items, cfg.Seed = 45, 30, 11
	cfg.DiscriminationMax = 2
	if info.BinaryOnly {
		cfg.Options = 2
	}
	d, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d.Responses
}

// TestUpdateCacheGoldenEquivalence is the golden suite of the cache
// protocol: for every registered method, Engine.Rank and the packed
// RefreshEngines path must be bitwise identical to a direct solve whose
// update machinery is built from scratch (core.NewUpdateScratch, bypassing
// every generation-keyed memo) and warm-started from the previous
// reference scores, on the cold path and across a series of warm re-ranks
// (single writes, retractions and a burst).
func TestUpdateCacheGoldenEquivalence(t *testing.T) {
	ctx := context.Background()
	base := []Option{WithSeed(3), WithParallelism(1)}
	for _, method := range MethodNames() {
		t.Run(method, func(t *testing.T) {
			info, _ := Describe(method)
			m := goldenWorkload(t, method)
			mkEngine := func() *Engine {
				eng, err := NewEngine(m, WithMethod(method), WithRankOptions(base...))
				if err != nil {
					t.Fatal(err)
				}
				return eng
			}
			ranked, refreshed := mkEngine(), mkEngine()

			var warm []float64
			step := func(phase string) {
				view, _ := ranked.View()
				opts := append([]Option(nil), base...)
				if warm != nil {
					opts = append(opts, WithWarmStart(warm))
				}
				if info.UpdateBacked {
					opts = append(opts, withUpdate(core.NewUpdateScratch(view)))
				}
				r, err := New(method, opts...)
				if err != nil {
					t.Fatal(err)
				}
				want, werr := r.Rank(ctx, view)
				got, gerr := ranked.Rank(ctx)
				bulk, berr := RefreshEngines(ctx, []*Engine{refreshed})
				if werr != nil {
					if gerr == nil || gerr.Error() != werr.Error() || berr == nil || !strings.Contains(berr.Error(), werr.Error()) {
						t.Fatalf("%s: reference err %v vs rank err %v vs refresh err %v", phase, werr, gerr, berr)
					}
					return
				}
				if gerr != nil || berr != nil {
					t.Fatalf("%s: rank err %v, refresh err %v", phase, gerr, berr)
				}
				for _, res := range []Result{got, bulk[0]} {
					if !scoresEqualBits(res.Scores, want.Scores) {
						t.Fatalf("%s: cached scores differ from scratch scores", phase)
					}
					if res.Iterations != want.Iterations || res.Flipped != want.Flipped {
						t.Fatalf("%s: solve metadata diverged (it %d vs %d)", phase, res.Iterations, want.Iterations)
					}
				}
				warm = want.Scores
			}

			step("cold")
			writes := []Observation{
				{User: 3, Item: 2, Option: 1},
				{User: 7, Item: 5, Option: Unanswered}, // retraction (may empty a row)
				{User: 3, Item: 2, Option: 0},
			}
			for i, o := range writes {
				for _, eng := range []*Engine{ranked, refreshed} {
					if err := eng.Observe(o.User, o.Item, o.Option); err != nil {
						t.Fatal(err)
					}
				}
				step([]string{"warm-write", "warm-retract", "warm-rewrite"}[i])
			}
			burst := []Observation{{User: 1, Item: 1, Option: 0}, {User: 9, Item: 4, Option: 1}, {User: 12, Item: 0, Option: 1}}
			for _, eng := range []*Engine{ranked, refreshed} {
				if err := eng.ObserveBatch(burst); err != nil {
					t.Fatal(err)
				}
			}
			step("warm-burst")
		})
	}
}

// TestRankBatchGoldenEquivalence extends the golden suite to the packed
// multi-tenant path: RefreshEngines results, with the per-engine caches
// backed by the generation-keyed memos, must be bitwise identical to
// direct solves whose update machinery is built from scratch
// (core.NewUpdateScratch) and warm-started from the previous reference
// scores, across cold, all-cached and partly re-written tenants.
func TestRankBatchGoldenEquivalence(t *testing.T) {
	ctx := context.Background()
	base := []Option{WithSeed(3), WithParallelism(1)}
	engines := tenantEngines(t, 5, 21, WithRankOptions(base...))
	warm := make([][]float64, len(engines))
	step := func(phase string, written ...int) {
		got, err := RefreshEngines(ctx, engines)
		if err != nil {
			t.Fatalf("%s: %v", phase, err)
		}
		for i, e := range engines {
			if warm[i] != nil && !slices.Contains(written, i) {
				if !scoresEqualBits(got[i].Scores, warm[i]) {
					t.Fatalf("%s: unwritten tenant %d changed scores", phase, i)
				}
				continue
			}
			view, _ := e.View()
			opts := append([]Option{withUpdate(core.NewUpdateScratch(view))}, base...)
			if warm[i] != nil {
				opts = append(opts, WithWarmStart(warm[i]))
			}
			want, err := HND(opts...).Rank(ctx, view)
			if err != nil {
				t.Fatal(err)
			}
			if !scoresEqualBits(got[i].Scores, want.Scores) {
				t.Fatalf("%s: tenant %d scores differ between cached and scratch", phase, i)
			}
			warm[i] = want.Scores
		}
	}

	step("cold")
	step("all-cached")
	write := func(i, user, item, option int) {
		if err := engines[i].Observe(user, item, option); err != nil {
			t.Fatal(err)
		}
	}
	write(2, 4, 3, 1)
	step("one-stale", 2)
	write(0, 0, 0, Unanswered)
	write(4, 9, 2, 2)
	step("two-stale", 0, 4)
}

// TestWarmRerankAvoidsFullNormalizationRebuild is the counter assertion of
// the acceptance criteria: after the cold solve's one full normalization,
// warm re-ranks following single-user writes pay touched-rows splices only
// — no further full RowNormalized/ColNormalized rebuild anywhere, even
// under outstanding copy-on-write snapshots.
func TestWarmRerankAvoidsFullNormalizationRebuild(t *testing.T) {
	ctx := context.Background()
	eng, err := NewEngine(engineWorkload(t, 120, 60, 9), WithRankOptions(WithSeed(4)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Rank(ctx); err != nil {
		t.Fatal(err)
	}
	view, _ := eng.View() // outstanding snapshot: the next write COW-clones
	if full, delta := view.NormRebuilds(); full != 1 || delta != 0 {
		t.Fatalf("cold rank paid %d full + %d delta normalizations, want 1 + 0", full, delta)
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
	if full, delta := m.NormRebuilds(); full != 1 || delta != 3 {
		t.Fatalf("warm re-ranks paid %d full + %d delta normalizations, want 1 + 3", full, delta)
	}
	if full, _ := m.CSRRebuilds(); full != 1 {
		t.Fatalf("warm re-ranks paid %d full CSR rebuilds, want 1", full)
	}
	// The outstanding snapshot still serves its original normalized memo.
	if _, crow, _ := view.Normalized(); crow == nil {
		t.Fatal("snapshot lost its normalized memo")
	}
	if full, delta := view.NormRebuilds(); full != 1 || delta != 0 {
		t.Fatalf("snapshot's counters moved (full=%d delta=%d)", full, delta)
	}
}

// assertNormalizedTripleConsistent checks that a snapshot's (C, C_row,
// C_col) triple is internally consistent — the "never a partially refreshed
// Crow/Ccol" assertion of the race suite. For the one-hot encoding, every
// C_row entry of a row with s answers must be exactly 1/s, and every C_col
// entry in a column chosen by c users exactly 1/c; a torn triple (forms
// from different generations) breaks one of the counts.
func assertNormalizedTripleConsistent(t *testing.T, m *ResponseMatrix) {
	t.Helper()
	c, crow, ccol := m.Normalized()
	if crow.Rows() != c.Rows() || ccol.Rows() != c.Rows() || crow.NNZ() != c.NNZ() || ccol.NNZ() != c.NNZ() {
		t.Error("normalized forms disagree with the encoding's shape")
		return
	}
	colCount := make([]float64, c.Cols())
	for r := 0; r < c.Rows(); r++ {
		cols, _ := c.RowNNZ(r)
		for _, j := range cols {
			colCount[j]++
		}
	}
	for r := 0; r < c.Rows(); r++ {
		cCols, _ := c.RowNNZ(r)
		rCols, rVals := crow.RowNNZ(r)
		lCols, lVals := ccol.RowNNZ(r)
		if len(rCols) != len(cCols) || len(lCols) != len(cCols) {
			t.Errorf("row %d: normalized row lengths diverge from the encoding", r)
			return
		}
		inv := 1 / float64(len(cCols))
		for i, j := range cCols {
			if rCols[i] != j || lCols[i] != j {
				t.Errorf("row %d: normalized structure diverges from the encoding", r)
				return
			}
			if math.Float64bits(rVals[i]) != math.Float64bits(inv) {
				t.Errorf("row %d: C_row entry %v, want %v", r, rVals[i], inv)
				return
			}
			if want := 1 / colCount[j]; math.Float64bits(lVals[i]) != math.Float64bits(want) {
				t.Errorf("row %d col %d: C_col entry %v, want %v", r, j, lVals[i], want)
				return
			}
		}
	}
}

// TestUpdateCacheConcurrentStress hammers one engine with concurrent
// Observe, Rank, RefreshEngines, InferLabels and View traffic over the
// shared generation-keyed caches. Run under -race it is the cache protocol's
// concurrency proof; the view checker additionally asserts every snapshot
// observes a fully consistent (C, C_row, C_col) triple, never a partially
// refreshed one.
func TestUpdateCacheConcurrentStress(t *testing.T) {
	const iters = 60
	ctx := context.Background()
	eng, err := NewEngine(engineWorkload(t, 80, 30, 5), WithRankOptions(WithSeed(2), WithMaxIter(200)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Rank(ctx); err != nil {
		t.Fatal(err)
	}
	tenants := tenantEngines(t, 3, 31, WithRankOptions(WithSeed(2), WithMaxIter(200)))
	if _, err := RefreshEngines(ctx, tenants); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	run := func(f func(i int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if err := f(i); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	run(func(i int) error { // writer
		return eng.Observe(i%eng.Users(), i%eng.Items(), i%3)
	})
	run(func(i int) error { // second writer, bursts
		return eng.ObserveBatch([]Observation{
			{User: (i * 7) % eng.Users(), Item: i % eng.Items(), Option: Unanswered},
			{User: (i*7 + 1) % eng.Users(), Item: i % eng.Items(), Option: i % 3},
		})
	})
	for k := 0; k < 2; k++ { // rankers
		run(func(i int) error {
			_, err := eng.Rank(ctx)
			return err
		})
	}
	run(func(i int) error { // label inference shares the cache machinery
		_, err := eng.InferLabels(ctx)
		return err
	})
	run(func(i int) error { // packed refresher: the shared engine plus its own tenants
		if err := tenants[i%len(tenants)].Observe(i%tenants[0].Users(), i%tenants[0].Items(), i%3); err != nil {
			return err
		}
		_, err := RefreshEngines(ctx, append([]*Engine{eng}, tenants...))
		return err
	})
	viewerDone := make(chan struct{})
	wg.Add(1)
	go func() { // viewer: consistency of COW snapshots under writes
		defer wg.Done()
		defer close(viewerDone)
		for i := 0; i < iters; i++ {
			m, _ := eng.View()
			assertNormalizedTripleConsistent(t, m)
		}
	}()
	wg.Wait()
	<-viewerDone

	// After the dust settles, the cached path still matches scratch.
	res, err := eng.Rank(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Scores {
		if math.IsNaN(s) || math.IsInf(s, 0) {
			t.Fatal("stress left non-finite scores behind")
		}
	}
	m, _ := eng.View()
	full, delta := m.NormRebuilds()
	if full != 1 {
		t.Fatalf("stress traffic triggered %d full normalization rebuilds, want 1 (delta=%d)", full, delta)
	}
}
