package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"hitsndiffs"
	"hitsndiffs/internal/durable"
	"hitsndiffs/internal/response"
)

// scoreTol bounds the distance between a served exact ranking and a
// direct cold HND() solve of the same matrix: the largest per-user score
// difference over the largest score. Both stop at the solver's 1e-5 gap
// between iterates, from different starts, so they agree to about that
// gap over the spectral gap — far inside this bound, while a ranking of
// the wrong matrix misses it by orders of magnitude.
const scoreTol = 1e-3

// quality is the final ranking's agreement with ground truth and with the
// direct solve, averaged over tenants.
type quality struct{ truth, exact float64 }

// finalCheck is the correctness gate run after every timed phase:
//   - each tenant's write generation equals the observations acknowledged
//     to it (preload included);
//   - each tenant's final exact ranking is compared with a direct,
//     unsharded HND() solve of the benchmark's copy — for unsharded tenants
//     it must match within scoreTol;
//   - a durable workload's data directory, reopened after the server
//     closes, holds exactly the benchmark's copy.
//
// Violations are collected in the report; err is for failures to check.
func finalCheck(e *env, tds []*tenantData, st *state, ck *checker, rep *report, dataDir string) (quality, error) {
	var fin phaseCounts
	c := &caller{e: e, counts: &fin}
	var q quality
	for t, td := range tds {
		rr, err := exactRank(c, td)
		if err != nil {
			e.close()
			return q, err
		}
		direct, err := hitsndiffs.HND().Rank(context.Background(), st.copies[t])
		if err != nil {
			e.close()
			return q, fmt.Errorf("direct solve of %s: %w", td.name, err)
		}
		q.truth += hitsndiffs.Spearman(rr.Scores, td.ds.Abilities)
		q.exact += hitsndiffs.Spearman(rr.Scores, direct.Scores)
		if e.w.shards == 1 {
			if d := scoreDistance(rr.Scores, direct.Scores); d > scoreTol {
				ck.fail("tenant %s: served scores differ from the direct solve by %.3g (tolerance %g)", td.name, d, scoreTol)
			}
		}
	}
	q.truth /= float64(len(tds))
	q.exact /= float64(len(tds))

	snap := e.srv.Snapshot()
	for t, td := range tds {
		var gen uint64
		found := false
		for _, ts := range snap.Tenants {
			if ts.Name == td.name {
				gen, found = ts.Engine.Generation, true
			}
		}
		if !found || gen != st.acked[t] {
			ck.fail("tenant %s: generation %d, acknowledged observations %d", td.name, gen, st.acked[t])
		}
	}
	rep.phase("final", fin)
	if err := e.close(); err != nil {
		return q, err
	}
	if e.w.durable {
		if err := checkReopen(e.w, tds, st, dataDir, ck); err != nil {
			return q, err
		}
	}
	rep.violations = append(rep.violations, ck.violations...)
	return q, nil
}

// scoreDistance is max|a−b| / max|b|.
func scoreDistance(a, b []float64) float64 {
	var diff, scale float64
	for i := range b {
		diff = math.Max(diff, math.Abs(a[i]-b[i]))
		scale = math.Max(scale, math.Abs(b[i]))
	}
	if scale == 0 {
		return diff
	}
	return diff / scale
}

// checkReopen reopens every shard log of the closed server's data
// directory and compares the recovered matrices with the benchmark's copy.
// The server keeps a sharded tenant's shard i in <tenant>/shard-<iii>/ and
// partitions users as hitsndiffs.ShardedEngine does for the same geometry.
func checkReopen(w *workload, tds []*tenantData, st *state, dataDir string, ck *checker) error {
	for t, td := range tds {
		users, err := shardUsers(td.spec, w.shards)
		if err != nil {
			return err
		}
		for sh, globals := range users {
			dir := filepath.Join(dataDir, td.name)
			if len(users) > 1 {
				dir = filepath.Join(dir, fmt.Sprintf("shard-%03d", sh))
			}
			geom := durable.Geometry{Users: len(globals), Items: td.spec.items, Options: []int{td.spec.options}}
			l, m, _, err := durable.Open(dir, geom, serverFsync)
			if err != nil {
				return fmt.Errorf("reopen %s shard %d: %w", td.name, sh, err)
			}
			if !sameRows(m, st.copies[t], globals) {
				ck.fail("tenant %s shard %d: reopened data directory differs from the acknowledged writes", td.name, sh)
			}
			if err := l.Close(); err != nil {
				return err
			}
		}
	}
	return nil
}

// shardUsers returns the global users of each shard of a tenant.
func shardUsers(spec tenantSpec, shards int) ([][]int, error) {
	se, err := hitsndiffs.NewShardedEngine(response.New(spec.users, spec.items, spec.options), hitsndiffs.WithShards(shards))
	if err != nil {
		return nil, err
	}
	out := make([][]int, se.Shards())
	for sh := range out {
		out[sh] = se.UsersOf(sh)
	}
	return out, nil
}

// sameRows reports whether local row i of m equals row globals[i] of full.
func sameRows(m, full *response.Matrix, globals []int) bool {
	for i, g := range globals {
		for it := 0; it < full.Items(); it++ {
			if m.Answer(i, it) != full.Answer(g, it) {
				return false
			}
		}
	}
	return true
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}
