package mat

import (
	"runtime"
	"sort"
	"sync/atomic"
)

// defaultWorkers holds the process-wide worker-count override; 0 means
// "resolve to runtime.GOMAXPROCS(0) at call time".
var defaultWorkers atomic.Int64

// SetDefaultWorkers sets the process-wide default number of worker
// goroutines the parallel sparse kernels use when a caller does not request
// an explicit count. Passing 0 (or a negative value) restores the
// GOMAXPROCS-tracking default. Safe for concurrent use.
func SetDefaultWorkers(n int) {
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int64(n))
}

// DefaultWorkers returns the effective default worker count: the value set
// by SetDefaultWorkers, or runtime.GOMAXPROCS(0) when unset.
func DefaultWorkers() int {
	if n := defaultWorkers.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// parallelMinNNZ is the matrix size (stored non-zeros) below which the
// parallel kernels fall back to their serial loops: under this threshold the
// goroutine fan-out costs more than the row sweep it splits.
const parallelMinNNZ = 1 << 13

// workersFor resolves a requested worker count (0 = package default) against
// the matrix size, returning 1 whenever the serial kernel is the right call.
func (m *CSR) workersFor(requested int) int {
	w := requested
	if w <= 0 {
		w = DefaultWorkers()
	}
	if w > m.rows {
		w = m.rows
	}
	if w <= 1 || m.NNZ() < parallelMinNNZ {
		return 1
	}
	return w
}

// chunkRow returns the row at which worker chunk k out of w starts, chosen
// so chunks carry roughly equal numbers of non-zeros. chunkRow(0)=0 and
// chunkRow(w)=rows; boundaries are monotone, so [chunkRow(k), chunkRow(k+1))
// partition the rows. Each worker derives its own bounds from this pure
// function, keeping the parallel kernels allocation-free.
func (m *CSR) chunkRow(k, w int) int {
	if k <= 0 {
		return 0
	}
	if k >= w {
		return m.rows
	}
	target := k * m.NNZ() / w
	return sort.Search(m.rows, func(r int) bool { return m.rowPtr[r] >= target })
}

// mulVecRange is the serial MulVec row loop restricted to rows [lo, hi).
func (m *CSR) mulVecRange(dst, x Vector, lo, hi int) {
	for i := lo; i < hi; i++ {
		var s float64
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			s += m.val[p] * x[m.colIdx[p]]
		}
		dst[i] = s
	}
}

// MulVecPar computes dst = m·x like MulVec, splitting the row sweep over up
// to `workers` chunks (0 = DefaultWorkers) executed on the persistent
// worker pool (pool.go). Rows are partitioned into contiguous,
// nnz-balanced chunks, so the per-row accumulation order — and therefore
// the floating-point result — is bitwise identical to the serial MulVec for
// every worker count. Small matrices fall back to the serial kernel. dst
// must not alias x.
func (m *CSR) MulVecPar(dst, x Vector, workers int) Vector {
	if len(x) != m.cols || len(dst) != m.rows {
		panic("mat: CSR MulVecPar shape mismatch")
	}
	w := m.workersFor(workers)
	if w == 1 {
		return m.MulVec(dst, x)
	}
	runKernel(taskMulVec, m, dst, x, nil, nil, nil, w)
	return dst
}

// TScratch holds the per-worker column accumulators MulVecTPar scatters
// into. The zero value is ready to use; buffers are grown on demand and
// reused across calls, so a solver loop that owns a TScratch performs no
// allocations after warm-up. A TScratch must not be shared by concurrent
// appliers.
type TScratch struct {
	partials []Vector
}

// ensure grows the scratch to at least `workers` accumulators of length
// `cols` each.
func (t *TScratch) ensure(workers, cols int) {
	for len(t.partials) < workers {
		t.partials = append(t.partials, nil)
	}
	for k := 0; k < workers; k++ {
		if len(t.partials[k]) < cols {
			t.partials[k] = NewVector(cols)
		}
	}
}

// scatterTRange zeroes the private accumulator p (over the matrix's column
// span) and scatters rows [lo, hi) of the transpose product into it — one
// chunk of MulVecTPar's first phase.
func (m *CSR) scatterTRange(p, x Vector, lo, hi int) {
	p = p[:m.cols]
	p.Fill(0)
	for i := lo; i < hi; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		for q := m.rowPtr[i]; q < m.rowPtr[i+1]; q++ {
			p[m.colIdx[q]] += m.val[q] * xi
		}
	}
}

// reduceColumns sums the first w per-chunk accumulators into column chunk k
// of dst — one chunk of MulVecTPar's second phase. Accumulators are always
// added in chunk order, which keeps the reduction deterministic for a fixed
// worker count.
func reduceColumns(dst Vector, partials []Vector, w, k int) {
	cols := len(dst)
	lo, hi := k*cols/w, (k+1)*cols/w
	for j := lo; j < hi; j++ {
		var s float64
		for q := 0; q < w; q++ {
			s += partials[q][j]
		}
		dst[j] = s
	}
}

// MulVecTPar computes dst = mᵀ·x like MulVecT, splitting the scatter over up
// to `workers` chunks (0 = DefaultWorkers) executed on the persistent
// worker pool. Each chunk scatters its nnz-balanced row range into a
// private accumulator from ws (allocated locally when ws is nil); the
// accumulators are then reduced into dst in chunk order over parallel
// column chunks. The result is bitwise deterministic for a fixed worker
// count and agrees with the serial MulVecT up to floating-point
// reassociation. dst must not alias x.
func (m *CSR) MulVecTPar(dst, x Vector, workers int, ws *TScratch) Vector {
	if len(x) != m.rows || len(dst) != m.cols {
		panic("mat: CSR MulVecTPar shape mismatch")
	}
	w := m.workersFor(workers)
	if w == 1 {
		return m.MulVecT(dst, x)
	}
	if ws == nil {
		ws = &TScratch{}
	}
	ws.ensure(w, m.cols)
	runKernel(taskScatterT, m, nil, x, nil, nil, ws, w)
	runKernel(taskReduceT, m, dst, nil, nil, nil, ws, w)
	return dst
}

// mulVecDiagSubRange is the fused serial row loop of MulVecDiagSub over
// rows [lo, hi).
func (m *CSR) mulVecDiagSubRange(dst, x, diag, s Vector, lo, hi int) {
	for i := lo; i < hi; i++ {
		var acc float64
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			acc += m.val[p] * x[m.colIdx[p]]
		}
		dst[i] = diag[i]*s[i] - acc
	}
}

// MulVecDiagSub computes dst = diag∘s − m·x in one fused row pass, the
// kernel behind the matrix-free ABH Laplacian apply L·s = D·s − C·(Cᵀ·s).
// Fusing the diagonal term into the row sweep removes one full pass over
// dst compared to MulVec followed by an elementwise fix-up. The sweep is
// split over up to `workers` chunks (0 = DefaultWorkers) executed on the
// persistent worker pool with the same nnz-balanced row partition as
// MulVecPar, so results are bitwise identical to the serial fused loop for
// every worker count. dst must not alias x.
func (m *CSR) MulVecDiagSub(dst, x, diag, s Vector, workers int) Vector {
	if len(x) != m.cols || len(dst) != m.rows || len(diag) != m.rows || len(s) != m.rows {
		panic("mat: CSR MulVecDiagSub shape mismatch")
	}
	w := m.workersFor(workers)
	if w == 1 {
		m.mulVecDiagSubRange(dst, x, diag, s, 0, m.rows)
		return dst
	}
	runKernel(taskDiagSub, m, dst, x, diag, s, nil, w)
	return dst
}
