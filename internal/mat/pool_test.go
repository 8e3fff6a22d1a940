package mat

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// poolTestCSR builds a random CSR large enough to clear the serial
// fallback threshold.
func poolTestCSR(t testing.TB, rows, cols int, seed int64) *CSR {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	entries := make([]Coord, 0, rows*8)
	for r := 0; r < rows; r++ {
		for k := 0; k < 8; k++ {
			entries = append(entries, Coord{Row: r, Col: rng.Intn(cols), Val: rng.Float64()})
		}
	}
	m := NewCSR(rows, cols, entries)
	if m.NNZ() < parallelMinNNZ {
		t.Fatalf("test matrix too small to engage the pool: nnz=%d", m.NNZ())
	}
	return m
}

// TestPooledKernelsMatchSerial checks the pooled dispatch path against the
// serial kernels for every worker count: row-parallel products must be
// bitwise identical, transpose products within reassociation tolerance.
func TestPooledKernelsMatchSerial(t *testing.T) {
	m := poolTestCSR(t, 2000, 300, 1)
	rng := rand.New(rand.NewSource(2))
	x := NewVector(m.Cols())
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	xt := NewVector(m.Rows())
	for i := range xt {
		xt[i] = rng.NormFloat64()
	}
	diag := NewVector(m.Rows())
	sv := NewVector(m.Rows())
	for i := range diag {
		diag[i], sv[i] = rng.Float64(), rng.NormFloat64()
	}

	wantMul := m.MulVec(NewVector(m.Rows()), x)
	wantMulT := m.MulVecT(NewVector(m.Cols()), xt)
	serialFused := NewVector(m.Rows())
	m.mulVecDiagSubRange(serialFused, x, diag, sv, 0, m.Rows())

	var ws TScratch
	for _, w := range []int{2, 3, 4, 7, 16} {
		got := m.MulVecPar(NewVector(m.Rows()), x, w)
		for i := range got {
			if got[i] != wantMul[i] {
				t.Fatalf("MulVecPar(w=%d)[%d] = %g, serial %g", w, i, got[i], wantMul[i])
			}
		}
		gotT := m.MulVecTPar(NewVector(m.Cols()), xt, w, &ws)
		for j := range gotT {
			if d := gotT[j] - wantMulT[j]; d > 1e-12 || d < -1e-12 {
				t.Fatalf("MulVecTPar(w=%d)[%d] = %g, serial %g", w, j, gotT[j], wantMulT[j])
			}
		}
		gotF := m.MulVecDiagSub(NewVector(m.Rows()), x, diag, sv, w)
		for i := range gotF {
			if gotF[i] != serialFused[i] {
				t.Fatalf("MulVecDiagSub(w=%d)[%d] = %g, serial %g", w, i, gotF[i], serialFused[i])
			}
		}
	}
}

// TestPoolConcurrentDispatch hammers the shared pool from many goroutines —
// the sharded-engine fan-out pattern — and checks every result. Run under
// -race this also proves dispatches never share mutable state.
func TestPoolConcurrentDispatch(t *testing.T) {
	m := poolTestCSR(t, 1500, 200, 3)
	x := Ones(m.Cols())
	want := m.MulVec(NewVector(m.Rows()), x)

	const goroutines, rounds = 8, 20
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dst := NewVector(m.Rows())
			var ws TScratch
			dstT := NewVector(m.Cols())
			xt := Ones(m.Rows())
			for r := 0; r < rounds; r++ {
				m.MulVecPar(dst, x, 1+(g+r)%5)
				for i := range dst {
					if dst[i] != want[i] {
						errs <- fmt.Sprintf("goroutine %d round %d: dst[%d]=%g want %g", g, r, i, dst[i], want[i])
						return
					}
				}
				m.MulVecTPar(dstT, xt, 1+(g+r)%5, &ws)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	if msg := <-errs; msg != "" {
		t.Fatal(msg)
	}
}

// TestSetPoolSize checks the pool's fixed size: it starts with GOMAXPROCS
// workers and keeps that size, and dispatches narrower and wider than the
// pool — sequential and concurrent — never lose a chunk.
func TestSetPoolSize(t *testing.T) {
	m := poolTestCSR(t, 1200, 150, 5)
	x := Ones(m.Cols())
	want := m.MulVec(NewVector(m.Rows()), x)
	size := runtime.GOMAXPROCS(0)
	check := func(w int) error {
		got := m.MulVecPar(NewVector(m.Rows()), x, w)
		for i := range got {
			if got[i] != want[i] {
				return fmt.Errorf("MulVecPar(w=%d)[%d] = %g, want %g", w, i, got[i], want[i])
			}
		}
		return nil
	}

	// More chunks than workers queue several chunks per worker.
	for _, w := range []int{2, size, size + 1, 2*size + 1} {
		if err := check(w); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(kernelPool.workers()); n != size {
		t.Fatalf("pool has %d workers, want GOMAXPROCS = %d", n, size)
	}

	// Wide dispatches interleaving on the same workers.
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 10; r++ {
				if err := check(size + 1 + (g+r)%6); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if n := len(kernelPool.workers()); n != size {
		t.Fatalf("pool resized to %d workers under load, want %d", n, size)
	}
}
