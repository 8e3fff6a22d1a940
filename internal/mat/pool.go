package mat

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file implements the persistent worker pool behind the parallel
// sparse kernels. Before it existed, every MulVecPar/MulVecTPar/
// MulVecDiagSub call spawned w−1 fresh goroutines (one per chunk) and tore
// them down again — O(workers) scheduler churn and small heap allocations
// per apply, multiplied by thousands of power-iteration steps and, under a
// sharded engine, by the number of shards fanning out concurrently. The
// pool replaces that with long-lived workers fed by per-worker task
// channels: a kernel invocation publishes one reusable run descriptor,
// round-robins its chunk indices onto the worker channels, executes chunk 0
// on the calling goroutine, and waits. In steady state the whole dispatch
// path performs zero heap allocations (see BenchmarkParallelDoPooled and
// the CI zero-alloc guard).
//
// Lifecycle: the pool starts lazily on the first parallel dispatch with
// runtime.GOMAXPROCS(0) workers and keeps that size; workers live for the
// rest of the process, and an idle worker costs one blocked goroutine and
// one empty channel.

// taskBuffer is the capacity of each worker's task channel. A little slack
// lets a dispatcher enqueue all its chunks without handshaking with every
// worker, and lets several shards' dispatches interleave on the same
// workers without blocking each other at the send.
const taskBuffer = 8

// taskKind selects the kernel body a worker runs for its chunk.
type taskKind uint8

const (
	// taskMulVec sweeps a row chunk of dst = m·x.
	taskMulVec taskKind = iota
	// taskScatterT scatters a row chunk of mᵀ·x into the chunk's private
	// column accumulator.
	taskScatterT
	// taskReduceT sums the per-chunk accumulators into a column chunk of
	// dst (the second phase of MulVecTPar).
	taskReduceT
	// taskDiagSub sweeps a row chunk of the fused dst = diag∘s − m·x.
	taskDiagSub
)

// kernelRun describes one parallel kernel invocation: the operands every
// chunk reads plus the WaitGroup the dispatcher blocks on. Runs are
// recycled through runPool so steady-state dispatch allocates nothing; all
// fields are written by the dispatcher before any task is published and
// are read-only while workers hold the run.
type kernelRun struct {
	kind            taskKind
	m               *CSR
	dst, x, diag, s Vector
	ws              *TScratch
	w               int
	wg              sync.WaitGroup
}

// exec runs chunk k of the kernel this run describes. Chunk boundaries come
// from the pure chunkRow partition, so results never depend on which worker
// executes which chunk.
func (r *kernelRun) exec(k int) {
	switch r.kind {
	case taskMulVec:
		r.m.mulVecRange(r.dst, r.x, r.m.chunkRow(k, r.w), r.m.chunkRow(k+1, r.w))
	case taskScatterT:
		r.m.scatterTRange(r.ws.partials[k], r.x, r.m.chunkRow(k, r.w), r.m.chunkRow(k+1, r.w))
	case taskReduceT:
		reduceColumns(r.dst, r.ws.partials, r.w, k)
	case taskDiagSub:
		r.m.mulVecDiagSubRange(r.dst, r.x, r.diag, r.s, r.m.chunkRow(k, r.w), r.m.chunkRow(k+1, r.w))
	}
}

// runPool recycles run descriptors across kernel invocations.
var runPool = sync.Pool{New: func() any { return new(kernelRun) }}

// runKernel publishes one kernel invocation to the worker pool and waits
// for all w chunks. The caller has already decided w > 1.
func runKernel(kind taskKind, m *CSR, dst, x, diag, s Vector, ws *TScratch, w int) {
	r := runPool.Get().(*kernelRun)
	r.kind, r.m, r.dst, r.x, r.diag, r.s, r.ws, r.w = kind, m, dst, x, diag, s, ws, w
	kernelPool.dispatch(r)
	// Drop the operand references before pooling the run so a parked
	// descriptor never pins a caller's buffers.
	*r = kernelRun{}
	runPool.Put(r)
}

// poolTask pairs a run with the chunk index the receiving worker executes.
type poolTask struct {
	r *kernelRun
	k int
}

// workerPool is the process-wide set of long-lived kernel workers, one
// task channel each.
type workerPool struct {
	once  sync.Once
	chans []chan poolTask
	next  atomic.Uint64 // round-robin cursor over the workers
}

// kernelPool is the shared pool all parallel kernels — and therefore all
// engine shards — dispatch through.
var kernelPool workerPool

// workers returns the worker channels, starting the pool on first use.
func (p *workerPool) workers() []chan poolTask {
	p.once.Do(func() {
		p.chans = make([]chan poolTask, runtime.GOMAXPROCS(0))
		for i := range p.chans {
			p.chans[i] = make(chan poolTask, taskBuffer)
			go poolWorker(p.chans[i])
		}
	})
	return p.chans
}

// dispatch fans the w chunks of r out over the pool — chunk 0 runs on the
// calling goroutine, like the old spawn-per-call path — and waits for all
// of them. Chunks are assigned round-robin, so concurrent dispatches (e.g.
// several shards ranking at once) interleave across the same workers; a
// run with more chunks than workers simply queues several chunks on one
// worker. Workers never block inside a chunk, so dispatch cannot deadlock.
func (p *workerPool) dispatch(r *kernelRun) {
	chans := p.workers()
	r.wg.Add(r.w - 1)
	for k := 1; k < r.w; k++ {
		chans[p.next.Add(1)%uint64(len(chans))] <- poolTask{r: r, k: k}
	}
	r.exec(0)
	r.wg.Wait()
}

// poolWorker is the loop of one persistent worker: execute a chunk, signal
// its run, park on the channel.
func poolWorker(ch chan poolTask) {
	for t := range ch {
		t.r.exec(t.k)
		t.r.wg.Done()
	}
}
