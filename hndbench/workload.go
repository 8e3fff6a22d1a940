package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"hitsndiffs/internal/irt"
	"hitsndiffs/internal/response"
	"hitsndiffs/internal/serve"
)

// workload is one named traffic mix: the tenant fleet it serves, how the
// server is configured, and how its closed-loop clients pick requests.
type workload struct {
	name string
	// tenants lists the fleet's geometries, tenant i named "t<i>".
	tenants []tenantSpec
	// shards is the server's Config.Shards (1 = plain engines).
	shards int
	// durable runs the server over a data directory (WAL flushed by
	// serverFsync); set-up is then a restart over a directory written
	// beforehand.
	durable bool
	// maxStale is the server's Config.MaxStaleness (0 = exact ranks, no
	// refresh scheduler).
	maxStale uint64
	// refresh is the refresh scheduler's round interval under maxStale.
	refresh time.Duration
	// snapshotEvery is the server's background snapshot cadence in
	// observations per tenant (0 = serve.DefaultSnapshotEvery); the traced
	// ladder checkpoints its own logs at the same cadence.
	snapshotEvery int
	// clients is the number of closed-loop clients (and connections).
	clients int
	// preload is the share of every tenant's answers loaded at set-up; the
	// rest is held out and streamed by the timed phase.
	preload float64
	// pick chooses the client's next request; see script.next.
	pick func(s *script) request
}

// tenantSpec is one tenant's matrix geometry.
type tenantSpec struct {
	users, items, options int
}

// Request kinds, one per /v1 endpoint the workloads drive.
const (
	kindObserve = iota
	kindObserveBatch
	kindRank
)

// request is one scripted request: a rank of one tenant or a write of
// some observations to it.
type request struct {
	kind   int
	tenant int
	obs    []serve.Observation
}

// isWrite reports whether the request is an observe/observebatch.
func (r request) isWrite() bool { return r.kind == kindObserve || r.kind == kindObserveBatch }

var workloads = []*workload{
	{
		name:    "write-rank",
		tenants: []tenantSpec{{users: 2000, items: 100, options: 4}},
		shards:  1,
		clients: 1,
		preload: 0.8,
		pick: func(s *script) request {
			// Strict alternation: every rank follows one fresh answer, so
			// every rank misses the result cache.
			if s.n%2 == 0 {
				return s.write(kindObserve, 0, 1)
			}
			return request{kind: kindRank, tenant: 0}
		},
	},
	{
		name:     "ingest-durable",
		tenants:  []tenantSpec{{1000, 60, 3}, {1000, 60, 3}, {1000, 60, 3}, {1000, 60, 3}},
		shards:   4,
		durable:  true,
		maxStale: 16,
		// Background refresh rounds every second and a few checkpoints per
		// tenant per run. At the server defaults (25 ms, 4096) background
		// solves and snapshot I/O land under a share of the writes that
		// varies from run to run, and write_p90_ms swung 2× between runs
		// of one seed (README.md).
		refresh:       time.Second,
		snapshotEvery: 16384,
		clients:       1,
		preload:       0.8,
		pick: func(s *script) request {
			t := s.rng.Intn(len(s.w.tenants))
			if s.rng.Float64() < 0.8 {
				return s.write(kindObserveBatch, t, 16)
			}
			return request{kind: kindRank, tenant: t}
		},
	},
}

// snapshotCadence is the workload's effective snapshot cadence.
func (w *workload) snapshotCadence() int {
	if w.snapshotEvery == 0 {
		return serve.DefaultSnapshotEvery
	}
	return w.snapshotEvery
}

// workloadByName resolves a -workload flag value.
func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

// cell is one (user, item) position of a tenant matrix.
type cell struct{ user, item int32 }

// tenantData is one tenant's generated inputs: the GRM dataset with its
// ground-truth abilities, the cells loaded at set-up and the held-out cells
// the timed phase streams. Everything is a pure function of the run seed.
type tenantData struct {
	name    string
	spec    tenantSpec
	seed    int64
	ds      *irt.Dataset
	preload []cell
	heldout []cell

	mu sync.Mutex
	// passes holds resampled answer sets for streams that outrun the
	// held-out cells: pass p ≥ 1 re-answers every cell from the same model
	// and abilities, so the data stays in distribution however long a run
	// lasts.
	passes []*response.Matrix
}

// generate builds every tenant's inputs for a workload and seed.
func generate(w *workload, seed int64) ([]*tenantData, error) {
	tds := make([]*tenantData, len(w.tenants))
	for t, spec := range w.tenants {
		tseed := seed*1000003 + int64(t)*7919
		cfg := irt.DefaultConfig(irt.ModelGRM)
		cfg.Users, cfg.Items, cfg.Options, cfg.Seed = spec.users, spec.items, spec.options, tseed
		ds, err := irt.Generate(cfg)
		if err != nil {
			return nil, fmt.Errorf("generate tenant %d: %w", t, err)
		}
		cells := make([]cell, 0, spec.users*spec.items)
		for u := 0; u < spec.users; u++ {
			for i := 0; i < spec.items; i++ {
				cells = append(cells, cell{int32(u), int32(i)})
			}
		}
		rng := rand.New(rand.NewSource(tseed))
		rng.Shuffle(len(cells), func(a, b int) { cells[a], cells[b] = cells[b], cells[a] })
		cut := int(float64(len(cells)) * w.preload)
		tds[t] = &tenantData{
			name:    fmt.Sprintf("t%d", t),
			spec:    spec,
			seed:    tseed,
			ds:      ds,
			preload: cells[:cut],
			heldout: cells[cut:],
		}
	}
	return tds, nil
}

// answer returns the option the tenant's user gives for a cell on the
// given pass (0 = the generated dataset).
func (td *tenantData) answer(c cell, pass int) int {
	if pass == 0 {
		return td.ds.Responses.Answer(int(c.user), int(c.item))
	}
	td.mu.Lock()
	defer td.mu.Unlock()
	for len(td.passes) < pass {
		p := len(td.passes) + 1
		re := irt.GenerateFromModel(td.ds.Model, td.ds.Abilities, 1, td.seed+int64(p)*104729)
		td.passes = append(td.passes, re.Responses)
	}
	return td.passes[pass-1].Answer(int(c.user), int(c.item))
}

// preloadMatrix is the tenant's matrix right after set-up.
func (td *tenantData) preloadMatrix() *response.Matrix {
	m := response.New(td.spec.users, td.spec.items, td.spec.options)
	for _, c := range td.preload {
		m.SetAnswer(int(c.user), int(c.item), td.answer(c, 0))
	}
	return m
}

// stream is one client's endless sequence of answers for one tenant. Pass
// 0 walks the client's share of the held-out cells; later passes re-answer
// the client's share of all cells in a fresh seeded order. Clients own
// disjoint cells, so the final matrix does not depend on how their
// requests interleave.
type stream struct {
	td              *tenantData
	client, clients int
	pass            int
	order           []cell
	pos             int
}

func (s *stream) next() serve.Observation {
	for s.pos >= len(s.order) {
		s.refill()
	}
	c := s.order[s.pos]
	s.pos++
	return serve.Observation{User: int(c.user), Item: int(c.item), Option: s.td.answer(c, s.pass)}
}

// owns reports whether the cell belongs to this stream's client.
func (s *stream) owns(c cell) bool {
	return (int(c.user)*s.td.spec.items+int(c.item))%s.clients == s.client
}

func (s *stream) refill() {
	if s.order != nil {
		s.pass++
	}
	s.pos = 0
	s.order = s.order[:0]
	if s.pass == 0 {
		for _, c := range s.td.heldout {
			if s.owns(c) {
				s.order = append(s.order, c)
			}
		}
		if s.order == nil {
			s.order = []cell{}
		}
		return
	}
	for u := 0; u < s.td.spec.users; u++ {
		for i := 0; i < s.td.spec.items; i++ {
			if c := (cell{int32(u), int32(i)}); s.owns(c) {
				s.order = append(s.order, c)
			}
		}
	}
	rng := rand.New(rand.NewSource(s.td.seed + int64(s.pass)*31 + int64(s.client)))
	rng.Shuffle(len(s.order), func(a, b int) { s.order[a], s.order[b] = s.order[b], s.order[a] })
}

// script is one client's request sequence, a pure function of the seed.
type script struct {
	w       *workload
	rng     *rand.Rand
	streams []*stream
	n       int // requests issued so far
}

func newScript(w *workload, tds []*tenantData, seed int64, client int) *script {
	s := &script{
		w:   w,
		rng: rand.New(rand.NewSource(seed*7 + int64(client)*1000033 + 1)),
	}
	for _, td := range tds {
		s.streams = append(s.streams, &stream{td: td, client: client, clients: w.clients})
	}
	return s
}

// next returns the client's next request.
func (s *script) next() request {
	r := s.w.pick(s)
	s.n++
	return r
}

// write draws n observations for tenant t from the client's stream.
func (s *script) write(kind, t, n int) request {
	obs := make([]serve.Observation, n)
	for i := range obs {
		obs[i] = s.streams[t].next()
	}
	return request{kind: kind, tenant: t, obs: obs}
}
