package core

import (
	"context"
	"fmt"

	"hitsndiffs/internal/mat"
	"hitsndiffs/internal/response"
)

// BatchItem is one tenant's input to a batched multi-tenant solve: its
// response matrix plus an optional warm start.
type BatchItem struct {
	// M is the tenant's response matrix.
	M *response.Matrix
	// WarmStart, when non-nil and of length M.Users(), seeds the tenant's
	// iteration with a previous score vector instead of a random one —
	// the same contract as Options.WarmStart, but per tenant.
	WarmStart mat.Vector
}

// BatchRanker runs HND-power over many independent tenant matrices in one
// lockstep solve. The tenants' row- and column-normalized one-hot matrices
// are packed into block-diagonal CSRs (mat.BlockDiag), so each power step
// services every still-iterating tenant's matvec with a single pass through
// the persistent worker pool — one parallel kernel dispatch instead of one
// per tenant. Between matvecs the cheap O(m) vector ops (cumulative sums,
// differences, normalization, convergence gaps) run per tenant on disjoint
// segments of the packed vectors.
//
// Tenants converge independently: a tenant whose gap drops under Tol is
// frozen and the remaining tenants are repacked without it, so a slow
// tenant never bills its iterations to the fast ones. Block-diagonal
// structure makes the packed iteration exactly the per-tenant iteration:
// with serial kernels (Workers: 1) the results are bitwise identical to
// running HNDPower on each tenant alone, and with parallel kernels they are
// deterministic for a fixed worker count.
//
// The alternative design — a work-stealing queue of whole per-tenant
// solves — parallelizes only across tenants, so a single straggler tenant
// ends up solved serially; packing also lets many small matrices (each
// under the parallel kernels' size cutoff on its own) clear it together.
// That is why the packed form is the one implemented.
type BatchRanker struct {
	// Opts are the shared tuning knobs (tolerance, iteration budget, seed,
	// orientation, worker cap) applied to every tenant. Per-tenant warm
	// starts come from the BatchItems; Opts.WarmStart is ignored.
	Opts Options
}

// TenantError reports which tenant of a RankBatch call failed, by its
// position in the batch slice. Callers that filter tenants before batching
// can unwrap it (errors.As) to translate the position back into their own
// indexing.
type TenantError struct {
	// Tenant is the failing item's index in the RankBatch input slice.
	Tenant int
	// Err is the underlying failure.
	Err error
}

// Error implements error.
func (e *TenantError) Error() string {
	return fmt.Sprintf("core: RankBatch tenant %d: %v", e.Tenant, e.Err)
}

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *TenantError) Unwrap() error { return e.Err }

// batchTenant is the per-tenant solver state of one RankBatch call.
type batchTenant struct {
	idx        int // position in the input (and output) slice
	m          *response.Matrix
	crow, ccol *mat.CSR
	users      int
	sdiff      mat.Vector // current difference iterate, len users-1
	next       mat.Vector // scratch for the post-apply difference
	res        Result
	done       bool
	flat       bool // iterate annihilated: no ranking signal remains
	rowOff     int  // this tenant's first row in the current packing
	colOff     int  // this tenant's first one-hot column in the packing
}

// RankBatch scores the users of every tenant matrix, returning one Result
// per tenant in input order. It honors ctx like Ranker.Rank: cancellation
// interrupts the lockstep iteration promptly and fails the whole batch. A
// tenant no spectral method can rank (fewer than two answering users)
// fails the batch with a TenantError naming its batch position; filter
// such tenants out beforehand (the sharded router serves them flat
// results instead).
func (b BatchRanker) RankBatch(ctx context.Context, items []BatchItem) ([]Result, error) {
	if len(items) == 0 {
		return nil, nil
	}
	opts := b.Opts
	opts.defaults()

	results := make([]Result, len(items))
	active := make([]*batchTenant, 0, len(items))
	finish := func(t *batchTenant) {
		var scores mat.Vector
		if t.flat {
			scores = mat.NewVector(t.users)
		} else {
			scores = mat.NewVector(t.users)
			mat.CumSumShift(scores, t.sdiff)
		}
		results[t.idx] = orient(scores, t.m, opts, t.res)
	}
	for idx, it := range items {
		if it.M == nil {
			return nil, &TenantError{Tenant: idx, Err: fmt.Errorf("nil matrix")}
		}
		if err := validateInput(it.M); err != nil {
			return nil, &TenantError{Tenant: idx, Err: err}
		}
		users := it.M.Users()
		if users == 2 {
			// U_diff is 1×1; any nonzero diff orders the two users. Defer
			// to the orientation heuristic entirely, exactly like HNDPower.
			results[idx] = orient(mat.Vector{0, 1}, it.M, opts, Result{Iterations: 0, Converged: true})
			continue
		}
		t := &batchTenant{idx: idx, m: it.M, users: users}
		topts := opts
		topts.WarmStart = it.WarmStart
		t.sdiff = initialDiff(users, topts, 101)
		t.next = mat.NewVector(users - 1)
		// Per-tenant C_row/C_col come from the tenant matrix's
		// generation-keyed memo: an unchanged tenant contributes its cached
		// forms, a re-written one pays a touched-rows splice.
		_, t.crow, t.ccol = it.M.Normalized()
		active = append(active, t)
	}

	// pack rebuilds the block-diagonal kernel operands and the concatenated
	// work vectors for the currently active tenants. s/us/opt carry no
	// state across iterations (each power step overwrites every segment),
	// so repacking after a tenant freezes is always safe.
	var crowP, ccolP *mat.CSR
	var s, us, opt mat.Vector
	var ts mat.TScratch
	pack := func() {
		if len(active) == 0 {
			return
		}
		crows := make([]*mat.CSR, len(active))
		ccols := make([]*mat.CSR, len(active))
		rows, cols := 0, 0
		for i, t := range active {
			crows[i], ccols[i] = t.crow, t.ccol
			t.rowOff, t.colOff = rows, cols
			rows += t.users
			cols += t.crow.Cols()
		}
		crowP = mat.BlockDiag(crows)
		ccolP = mat.BlockDiag(ccols)
		s = mat.NewVector(rows)
		us = mat.NewVector(rows)
		opt = mat.NewVector(cols)
	}
	pack()

	for it := 1; it <= opts.MaxIter && len(active) > 0; it++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for _, t := range active {
			mat.CumSumShift(s[t.rowOff:t.rowOff+t.users], t.sdiff) // s ← T·s_diff
		}
		// One pass through the worker pool applies U to every tenant:
		// w ← (C_col)ᵀ·s ; s ← C_row·w on the packed block-diagonals.
		ccolP.MulVecTPar(opt, s, opts.Workers, &ts)
		crowP.MulVecPar(us, opt, opts.Workers)
		frozen := false
		for _, t := range active {
			mat.Diff(t.next, us[t.rowOff:t.rowOff+t.users]) // s_diff ← S·s
			t.res.Iterations = it
			if t.next.Normalize() == 0 {
				// U_diff annihilated the iterate: no ranking signal remains
				// (e.g. all of this tenant's users answered identically).
				t.res.Converged = true
				t.done, t.flat = true, true
				frozen = true
				continue
			}
			gap := convergenceGap(t.next, t.sdiff)
			copy(t.sdiff, t.next)
			if gap < opts.Tol {
				t.res.Converged = true
				t.done = true
				frozen = true
			}
		}
		if frozen {
			remaining := active[:0]
			for _, t := range active {
				if t.done {
					finish(t)
				} else {
					remaining = append(remaining, t)
				}
			}
			active = remaining
			pack()
		}
	}
	for _, t := range active { // iteration budget exhausted
		finish(t)
	}
	return results, nil
}
