package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"hitsndiffs/internal/eigen"
	"hitsndiffs/internal/mat"
	"hitsndiffs/internal/response"
)

// denseCertGaps replays the certification arithmetic with the materialized
// dense U_diff — an implementation-independent oracle. Entry k−1 is the
// exact relative eigenpair residual ‖U_diff·v − (±λ)v‖/λ of the iterate
// entering step k, which is precisely the convergence gap the sparse path
// observes at step k (to floating-point drift between the dense and sparse
// product orders). Returns nil when the warm scores are flat.
func denseCertGaps(m *response.Matrix, warm mat.Vector, steps int) []float64 {
	ud := NewUpdateScratch(m).UDiffMatrix()
	v := mat.NewVector(m.Users() - 1)
	mat.Diff(v, warm)
	if v.Normalize() == 0 {
		return nil
	}
	gaps := make([]float64, 0, steps)
	next := mat.NewVector(len(v))
	for k := 0; k < steps; k++ {
		_, gap := eigen.ResidualStep(eigen.DenseOp{M: ud}, next, v)
		gaps = append(gaps, gap)
		copy(v, next)
	}
	return gaps
}

// assertCertificateSound is the committed soundness property: a certified
// hit's accepted gap must be a genuine within-tolerance residual under the
// dense oracle, and its Result must be bit-for-bit the full warm solve.
// Loosening the shipped bound (certSlack or the source acceptance test) by
// 10x makes engineered cases below trip the oracle branch here.
func assertCertificateSound(t *testing.T, name string, m *response.Matrix, opts Options, cert Certificate) {
	t.Helper()
	if !cert.Certified {
		return
	}
	if cert.ScreenRejected {
		t.Fatalf("%s: certificate both certified and screen-rejected", name)
	}
	gaps := denseCertGaps(m, opts.WarmStart, cert.Steps)
	if gaps == nil {
		t.Fatalf("%s: certified a flat warm start", name)
	}
	oracle := gaps[cert.Steps-1]
	if oracle > opts.Tol*(1+1e-6) {
		t.Fatalf("%s: certificate accepted an out-of-tolerance iterate: oracle residual %g > tol %g (claimed gap %g)",
			name, oracle, opts.Tol, cert.Gap)
	}
	if math.Abs(oracle-cert.Gap) > 1e-9*(1+oracle) {
		t.Fatalf("%s: claimed gap %g disagrees with dense oracle %g", name, cert.Gap, oracle)
	}
	ref, err := (HNDPower{Opts: opts}).Rank(context.Background(), m)
	if err != nil {
		t.Fatalf("%s: reference warm solve failed: %v", name, err)
	}
	assertResultsBitwise(t, name, cert.Result, ref)
}

func assertResultsBitwise(t *testing.T, name string, got, want Result) {
	t.Helper()
	if got.Iterations != want.Iterations || got.Converged != want.Converged || got.Flipped != want.Flipped {
		t.Fatalf("%s: metadata mismatch: got it=%d conv=%v flip=%v, want it=%d conv=%v flip=%v",
			name, got.Iterations, got.Converged, got.Flipped, want.Iterations, want.Converged, want.Flipped)
	}
	if len(got.Scores) != len(want.Scores) {
		t.Fatalf("%s: score length %d vs %d", name, len(got.Scores), len(want.Scores))
	}
	for i := range got.Scores {
		if math.Float64bits(got.Scores[i]) != math.Float64bits(want.Scores[i]) {
			t.Fatalf("%s: score[%d] = %v, want %v (not bitwise identical)", name, i, got.Scores[i], want.Scores[i])
		}
	}
}

// TestCertifyWarmIdempotentWriteHit pins the guaranteed-hit case the serving
// engines lean on: a write that bumps the generation without changing the
// matrix leaves the previous converged vector's residual below tolerance,
// so certification must hit — and serve the solver's exact result.
func TestCertifyWarmIdempotentWriteHit(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	m := randomResponses(rng, 60, 25, 4, 0.85)
	cold, err := (HNDPower{}).Rank(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	warm := cold.Scores.Clone()
	m.SetAnswer(3, 2, m.Answer(3, 2)) // generation moves, responses do not

	opts := Options{WarmStart: warm}
	cert, err := (HNDPower{Opts: opts}).CertifyWarm(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if !cert.Certified {
		t.Fatalf("idempotent rewrite must certify (gap %g, screen %v)", cert.Gap, cert.ScreenRejected)
	}
	opts.defaults()
	assertCertificateSound(t, "idempotent", m, opts, cert)
}

// TestCertifyWarmMatchesSolverOnRealWrites drives genuine single writes and
// asserts the exact hit/miss contract: absent a screen rejection, the
// certificate hits if and only if the full warm solve would converge within
// the certification step budget, and a hit is bitwise that solve.
func TestCertifyWarmMatchesSolverOnRealWrites(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	m := randomResponses(rng, 50, 20, 4, 0.8)
	res, err := (HNDPower{}).Rank(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	warm := res.Scores.Clone()
	hits := 0
	for round := 0; round < 15; round++ {
		m.SetAnswer(rng.Intn(m.Users()), rng.Intn(m.Items()), rng.Intn(4))
		opts := Options{WarmStart: warm}
		h := HNDPower{Opts: opts}
		cert, err := h.CertifyWarm(context.Background(), m)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := h.Rank(context.Background(), m)
		if err != nil {
			t.Fatal(err)
		}
		if !cert.ScreenRejected {
			wantHit := ref.Converged && ref.Iterations <= certSteps
			if cert.Certified != wantHit {
				t.Fatalf("round %d: certified=%v but warm solve took %d iterations (converged=%v)",
					round, cert.Certified, ref.Iterations, ref.Converged)
			}
		}
		if cert.Certified {
			hits++
			assertResultsBitwise(t, "real-write", cert.Result, ref)
			opts.defaults()
			assertCertificateSound(t, "real-write", m, opts, cert)
		}
		warm = ref.Scores.Clone()
	}
	t.Logf("certified %d/15 single-write re-ranks", hits)
}

// TestCertificateSoundnessAdversarial stresses the bound with perturbations
// engineered against it — near-degenerate spectra from duplicated users,
// row-emptying retractions, write bursts, and a tripwire iterate whose gap
// sits at 5x tolerance so that any 10x loosening of the shipped bound turns
// into a caught out-of-tolerance acceptance.
func TestCertificateSoundnessAdversarial(t *testing.T) {
	rng := rand.New(rand.NewSource(23))

	t.Run("near-degenerate-eigengap", func(t *testing.T) {
		// Two copies of every response row: the spectrum pairs up and the
		// eigengap the power contraction depends on nearly closes.
		base := randomResponses(rng, 12, 10, 3, 0.9)
		m := response.New(24, 10, 3)
		for u := 0; u < 12; u++ {
			for i := 0; i < 10; i++ {
				if h := base.Answer(u, i); h != response.Unanswered {
					m.SetAnswer(2*u, i, h)
					m.SetAnswer(2*u+1, i, h)
				}
			}
		}
		res, err := (HNDPower{}).Rank(context.Background(), m)
		if err != nil {
			t.Fatal(err)
		}
		warm := res.Scores.Clone()
		m.SetAnswer(5, 3, (m.Answer(5, 3)+1)%3)
		opts := Options{WarmStart: warm}
		cert, err := (HNDPower{Opts: opts}).CertifyWarm(context.Background(), m)
		if err != nil {
			t.Fatal(err)
		}
		opts.defaults()
		assertCertificateSound(t, "near-degenerate", m, opts, cert)
	})

	t.Run("row-emptying-retraction", func(t *testing.T) {
		m := randomResponses(rng, 40, 15, 4, 0.9)
		res, err := (HNDPower{}).Rank(context.Background(), m)
		if err != nil {
			t.Fatal(err)
		}
		warm := res.Scores.Clone()
		for i := 0; i < m.Items(); i++ {
			m.SetAnswer(7, i, response.Unanswered)
		}
		opts := Options{WarmStart: warm}
		cert, err := (HNDPower{Opts: opts}).CertifyWarm(context.Background(), m)
		if err != nil {
			t.Fatal(err)
		}
		opts.defaults()
		assertCertificateSound(t, "row-emptying", m, opts, cert)
	})

	t.Run("burst-writes", func(t *testing.T) {
		m := randomResponses(rng, 40, 15, 4, 0.9)
		res, err := (HNDPower{}).Rank(context.Background(), m)
		if err != nil {
			t.Fatal(err)
		}
		warm := res.Scores.Clone()
		for w := 0; w < 12; w++ {
			m.SetAnswer(rng.Intn(40), rng.Intn(15), rng.Intn(4))
		}
		opts := Options{WarmStart: warm}
		cert, err := (HNDPower{Opts: opts}).CertifyWarm(context.Background(), m)
		if err != nil {
			t.Fatal(err)
		}
		opts.defaults()
		assertCertificateSound(t, "burst", m, opts, cert)
	})

	t.Run("loosening-tripwire", func(t *testing.T) {
		m, opts, cert := loosenedBoundCase(t, rng)
		if cert.Certified {
			// As shipped this iterate is rejected (its gap is 5x tolerance).
			// If a source change loosened the acceptance test, the oracle in
			// assertCertificateSound fails the build.
			assertCertificateSound(t, "tripwire", m, opts, cert)
			t.Fatal("iterate with gap 5x tolerance was certified under the shipped bound")
		}
	})
}

// loosenedBoundCase engineers a warm iterate whose certification gap lands
// at exactly 5x the solve tolerance: inside a 10x-loosened bound, outside
// the shipped one. It returns the matrix, the defaulted options used, and
// the certificate the current bound produced.
func loosenedBoundCase(t *testing.T, rng *rand.Rand) (*response.Matrix, Options, Certificate) {
	t.Helper()
	m := randomResponses(rng, 50, 20, 4, 0.7)
	// A partially converged solve leaves an iterate with a measurable,
	// not-yet-tolerable residual.
	rough, err := (HNDPower{Opts: Options{Tol: 5e-3}}).Rank(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	warm := rough.Scores.Clone()
	probe, err := (HNDPower{Opts: Options{Tol: 1e-300, WarmStart: warm}}).CertifyWarm(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if probe.Certified || probe.Gap <= 0 {
		t.Fatalf("probe expected a rejection with a positive gap, got %+v", probe)
	}
	opts := Options{Tol: probe.Gap / 5, WarmStart: warm}
	cert, err := (HNDPower{Opts: opts}).CertifyWarm(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	opts.defaults()
	return m, opts, cert
}

// TestLoosenedBoundAdmitsOutOfTolerance proves the adversarial suite has
// teeth: with the acceptance bound deliberately loosened 10x (the certSlack
// test hook), the engineered tripwire iterate is accepted even though the
// dense oracle shows its residual exceeds tolerance — exactly the failure
// assertCertificateSound exists to catch.
func TestLoosenedBoundAdmitsOutOfTolerance(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	m, opts, shipped := loosenedBoundCase(t, rng)
	if shipped.Certified {
		t.Fatal("shipped bound must reject the 5x-tolerance iterate")
	}

	defer func(old float64) { certSlack = old }(certSlack)
	certSlack = 10

	loose, err := (HNDPower{Opts: opts}).CertifyWarm(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if !loose.Certified {
		t.Fatalf("10x-loosened bound should accept the 5x-tolerance iterate (gap %g, tol %g)", loose.Gap, opts.Tol)
	}
	gaps := denseCertGaps(m, opts.WarmStart, loose.Steps)
	if oracle := gaps[loose.Steps-1]; oracle <= opts.Tol {
		t.Fatalf("expected an out-of-tolerance acceptance, oracle residual %g ≤ tol %g", oracle, opts.Tol)
	}
}

// TestScreenLowerBoundNeverExceedsTrueGap is the soundness property of the
// support-restricted screen: for arbitrary dirty sets, the cheap lower
// bound must never exceed the true first-step gap (otherwise the screen
// could reject a certifiable iterate for the wrong reason — harmless for
// correctness, but here we pin the math itself).
func TestScreenLowerBoundNeverExceedsTrueGap(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 30; trial++ {
		m := randomResponses(rng, 20+rng.Intn(30), 10+rng.Intn(10), 3, 0.8)
		res, err := (HNDPower{}).Rank(context.Background(), m)
		if err != nil {
			t.Fatal(err)
		}
		warm := res.Scores.Clone()
		writes := 1 + rng.Intn(4)
		for w := 0; w < writes; w++ {
			m.SetAnswer(rng.Intn(m.Users()), rng.Intn(m.Items()), rng.Intn(3))
		}
		u := NewUpdate(m) // captures the write delta
		if !u.Delta.Known || len(u.Delta.Rows) == 0 {
			t.Fatalf("trial %d: expected a known non-empty delta", trial)
		}
		users := u.Users()
		sdiff := mat.NewVector(users - 1)
		mat.Diff(sdiff, warm)
		if sdiff.Normalize() == 0 {
			continue
		}
		s := mat.NewVector(users)
		mat.CumSumShift(s, sdiff)
		ws := u.NewWorkspace()
		u.Ccol.MulVecTPar(ws.opt, s, 0, &ws.ts)
		us := mat.NewVector(users)
		lower, ok := screenGapLowerBound(u, nil, ws.opt, sdiff, us)
		if !ok {
			continue // support too large to screen — allowed
		}
		u.Crow.MulVecPar(us, ws.opt, 0)
		next := mat.NewVector(users - 1)
		mat.Diff(next, us)
		if next.Normalize() == 0 {
			if lower > 0 {
				t.Fatalf("trial %d: zero-signal step but screen bound %g > 0", trial, lower)
			}
			continue
		}
		gap := convergenceGap(next, sdiff)
		if lower > gap*(1+1e-12)+1e-15 {
			t.Fatalf("trial %d: screen lower bound %g exceeds true gap %g", trial, lower, gap)
		}
	}
}

// TestScreenRejectsHopelessGap forces a screen rejection (a one-row rewrite
// against a tiny tolerance) and checks the rejection is reported as such —
// and that the fallback full solve is untouched by the aborted attempt.
func TestScreenRejectsHopelessGap(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	m := randomResponses(rng, 50, 20, 4, 0.9)
	res, err := (HNDPower{}).Rank(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	warm := res.Scores.Clone()
	for i := 0; i < m.Items(); i++ {
		m.SetAnswer(11, i, rng.Intn(4)) // rewrite one user wholesale
	}
	opts := Options{Tol: 1e-9, WarmStart: warm}
	cert, err := (HNDPower{Opts: opts}).CertifyWarm(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if cert.Certified {
		t.Fatal("a wholesale row rewrite cannot certify at 1e-9 tolerance")
	}
	if !cert.ScreenRejected {
		t.Fatalf("expected the support-restricted screen to abort (gap %g, steps %d)", cert.Gap, cert.Steps)
	}
	if cert.Steps != 1 {
		t.Fatalf("screen rejection must happen at step 1, got %d", cert.Steps)
	}
	// The aborted attempt must not perturb a subsequent full solve: compare
	// against a fresh-memo reference on an identical matrix.
	got, err := (HNDPower{Opts: opts}).Rank(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	want, err := (HNDPower{Opts: Options{Tol: 1e-9, WarmStart: warm, Update: NewUpdateScratch(m)}}).Rank(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsBitwise(t, "post-screen-fallback", got, want)
}

// TestCertifyWarmEdgeCases pins the refuse-to-certify paths: two users, no
// warm start, flat warm scores, cancelled context.
func TestCertifyWarmEdgeCases(t *testing.T) {
	two := response.New(2, 3, 2)
	two.SetAnswer(0, 0, 1)
	two.SetAnswer(1, 1, 0)
	cert, err := (HNDPower{Opts: Options{WarmStart: mat.Vector{0, 1}}}).CertifyWarm(context.Background(), two)
	if err != nil || cert.Certified || cert.Steps != 0 {
		t.Fatalf("two users: got (%+v, %v), want clean refusal", cert, err)
	}

	rng := rand.New(rand.NewSource(27))
	m := randomResponses(rng, 10, 5, 3, 0.9)
	if cert, err = (HNDPower{}).CertifyWarm(context.Background(), m); err != nil || cert.Certified {
		t.Fatalf("no warm start: got (%+v, %v), want clean refusal", cert, err)
	}
	flat := Options{WarmStart: mat.Constant(10, 3.5)}
	if cert, err = (HNDPower{Opts: flat}).CertifyWarm(context.Background(), m); err != nil || cert.Certified {
		t.Fatalf("flat warm start: got (%+v, %v), want clean refusal", cert, err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	warm := mat.NewVector(10)
	for i := range warm {
		warm[i] = float64(i)
	}
	if _, err = (HNDPower{Opts: Options{WarmStart: warm}}).CertifyWarm(ctx, m); err == nil {
		t.Fatal("cancelled context must surface an error")
	}

	if _, err = (HNDPower{}).CertifyWarm(context.Background(), response.New(1, 2, 2)); err == nil {
		t.Fatal("degenerate input must surface the validation error")
	}
}

// TestCertifyScratchBitwise asserts a scratch-backed certification attempt
// is bit-for-bit the allocating one — gap, steps, decision and scores.
func TestCertifyScratchBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	m := randomResponses(rng, 40, 15, 4, 0.85)
	res, err := (HNDPower{}).Rank(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	warm := res.Scores.Clone()
	m.SetAnswer(4, 4, m.Answer(4, 4))
	u := NewUpdate(m)

	plain, err := (HNDPower{Opts: Options{WarmStart: warm, Update: u}}).CertifyWarm(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := (HNDPower{Opts: Options{WarmStart: warm, Update: u, Scratch: &SolveScratch{}}}).CertifyWarm(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Certified != pooled.Certified || plain.Steps != pooled.Steps ||
		math.Float64bits(plain.Gap) != math.Float64bits(pooled.Gap) ||
		plain.ScreenRejected != pooled.ScreenRejected {
		t.Fatalf("scratch changed the certificate: %+v vs %+v", plain, pooled)
	}
	if !plain.Certified {
		t.Fatal("expected the idempotent rewrite to certify")
	}
	assertResultsBitwise(t, "scratch-vs-plain", pooled.Result, plain.Result)
}

// TestHNDPowerScratchBitwise asserts a scratch-backed full solve is bitwise
// identical to the allocating solve — the guarantee that engine-side buffer
// pooling cannot move any score.
func TestHNDPowerScratchBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 5; trial++ {
		m := randomResponses(rng, 15+rng.Intn(40), 10, 4, 0.8)
		opts := Options{Seed: int64(trial)}
		plain, err := (HNDPower{Opts: opts}).Rank(context.Background(), m)
		if err != nil {
			t.Fatal(err)
		}
		sc := &SolveScratch{}
		optsSc := opts
		optsSc.Scratch = sc
		pooled, err := (HNDPower{Opts: optsSc}).Rank(context.Background(), m)
		if err != nil {
			t.Fatal(err)
		}
		assertResultsBitwise(t, "solve-scratch", pooled, plain)

		// Reuse the same scratch on a different matrix: rebind must not leak
		// state between solves.
		m2 := randomResponses(rng, 10+rng.Intn(20), 8, 3, 0.9)
		plain2, err := (HNDPower{Opts: opts}).Rank(context.Background(), m2)
		if err != nil {
			t.Fatal(err)
		}
		pooled2, err := (HNDPower{Opts: optsSc}).Rank(context.Background(), m2)
		if err != nil {
			t.Fatal(err)
		}
		assertResultsBitwise(t, "solve-scratch-reuse", pooled2, plain2)
	}
}

// TestCertifiedHitZeroAlloc is the hit-path allocation guard: with a
// prebuilt Update, a bound scratch and serial kernels, a steady-state
// certified hit performs zero heap allocations.
func TestCertifiedHitZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	m := randomResponses(rng, 80, 30, 4, 0.9)
	cold, err := (HNDPower{Opts: Options{Workers: 1}}).Rank(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	warm := cold.Scores.Clone()
	m.SetAnswer(0, 0, m.Answer(0, 0))
	u := NewUpdate(m)
	u.SetWorkers(1)
	h := HNDPower{Opts: Options{Workers: 1, WarmStart: warm, Update: u, Scratch: &SolveScratch{}}}
	ctx := context.Background()

	// Warm-up binds every buffer (scratch vectors, transpose scratch,
	// orientation counts, screen support lists).
	cert, err := h.CertifyWarm(ctx, m)
	if err != nil {
		t.Fatal(err)
	}
	if !cert.Certified {
		t.Fatalf("warm-up attempt must certify (gap %g)", cert.Gap)
	}
	allocs := testing.AllocsPerRun(20, func() {
		c, err := h.CertifyWarm(ctx, m)
		if err != nil || !c.Certified {
			t.Fatalf("steady-state attempt failed: certified=%v err=%v", c.Certified, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("certified hit allocated %v times per run, want 0", allocs)
	}
}

// FuzzCertifySoundness fuzzes arbitrary write/retract sequences between a
// converged solve and a certification attempt, holding the full soundness
// property: never an out-of-tolerance acceptance, hits bitwise equal to the
// warm solve.
func FuzzCertifySoundness(f *testing.F) {
	f.Add([]byte{0x13, 0x88, 0x21})
	f.Add([]byte{0xff, 0x00, 0xff, 0x00, 0xaa, 0x55, 0x3c})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const users, items, k = 18, 8, 3
		rng := rand.New(rand.NewSource(99))
		m := randomResponses(rng, users, items, k, 0.85)
		res, err := (HNDPower{}).Rank(context.Background(), m)
		if err != nil {
			t.Skip()
		}
		warm := res.Scores.Clone()
		if len(ops) > 24 {
			ops = ops[:24]
		}
		for _, op := range ops {
			u, i := int(op>>3)%users, int(op)%items
			if op%5 == 0 {
				m.SetAnswer(u, i, response.Unanswered)
			} else {
				m.SetAnswer(u, i, int(op)%k)
			}
		}
		opts := Options{WarmStart: warm}
		cert, err := (HNDPower{Opts: opts}).CertifyWarm(context.Background(), m)
		if err != nil {
			// Retractions can empty the matrix below the rankable minimum;
			// the solver fails identically, so there is nothing to certify.
			return
		}
		opts.defaults()
		assertCertificateSound(t, "fuzz", m, opts, cert)
	})
}
