package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"hitsndiffs/internal/durable"
	"hitsndiffs/internal/serve"
)

// The WAL policies, stated in the output header; both sides of a
// comparison run them. The durable workload's server flushes on the
// interval timer: on a shared disk, fsync-per-write latency swings with
// other tenants' I/O from run to run (write_p90 spread 0.3 to 0.7 over five
// seeds, against 0.04 on the timer), which 30 s runs did not average away.
// The traced ladder's own logs fsync every append, so the per-layer figures
// still price an acknowledged write on stable storage.
var (
	serverFsync = durable.Policy{Mode: durable.FsyncInterval}
	ladderFsync = durable.Policy{Mode: durable.FsyncAlways}
)

// preloadBatch is the observation count of one set-up observebatch.
const preloadBatch = 4096

// env is one serving environment: an in-process serve.Server behind a
// loopback net/http listener, and the keep-alive client that drives it.
type env struct {
	w      *workload
	srv    *serve.Server
	hs     *http.Server
	base   string
	client *http.Client
	done   chan error // receives Serve's return once the listener stops
}

// serverConfig is the serve.Config a workload runs under.
func serverConfig(w *workload, dataDir string) serve.Config {
	cfg := serve.Config{Shards: w.shards, MaxStaleness: w.maxStale, RefreshInterval: w.refresh, SnapshotEvery: w.snapshotEvery}
	if w.durable {
		cfg.DataDir = dataDir
		cfg.Fsync = serverFsync
	}
	return cfg
}

// startEnv builds the server (recovering DataDir when set) and starts
// serving it on a loopback port.
func startEnv(w *workload, cfg serve.Config) (*env, error) {
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	e := &env{
		w:    w,
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler()},
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: w.clients,
			MaxConnsPerHost:     w.clients,
			DisableCompression:  true,
		}},
		done: make(chan error, 1),
	}
	go func() { e.done <- e.hs.Serve(ln) }()
	return e, nil
}

// close stops the listener, waits for the serve loop to return, and
// closes the server (flushing durable logs).
func (e *env) close() error {
	e.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := e.hs.Shutdown(ctx)
	if serr := <-e.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	e.srv.Close()
	return err
}

// caller issues requests over one keep-alive connection, reusing its
// buffers. Not safe for concurrent use; each client owns one.
type caller struct {
	e    *env
	body bytes.Buffer
	resp bytes.Buffer
	// sent, ok and failed count requests per phase for the header.
	counts *phaseCounts
}

// phaseCounts tallies requests sent, succeeded and failed in one phase.
type phaseCounts struct{ sent, ok, failed int }

func (p *phaseCounts) add(o phaseCounts) {
	p.sent += o.sent
	p.ok += o.ok
	p.failed += o.failed
}

// post sends one JSON request and reads the whole response. The duration
// runs from the send to the last byte of the body, not counting the
// request's encoding.
func (c *caller) post(path string, v any) (status int, body []byte, d time.Duration, err error) {
	c.body.Reset()
	if err := json.NewEncoder(&c.body).Encode(v); err != nil {
		return 0, nil, 0, err
	}
	req, err := http.NewRequest(http.MethodPost, c.e.base+path, bytes.NewReader(c.body.Bytes()))
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	c.counts.sent++
	start := time.Now()
	resp, err := c.e.client.Do(req)
	if err != nil {
		c.counts.failed++
		return 0, nil, time.Since(start), err
	}
	c.resp.Reset()
	_, err = c.resp.ReadFrom(resp.Body)
	resp.Body.Close()
	d = time.Since(start)
	if err != nil || resp.StatusCode/100 != 2 {
		c.counts.failed++
	} else {
		c.counts.ok++
	}
	return resp.StatusCode, c.resp.Bytes(), d, err
}

// mustPost is post for set-up and check requests, where any failure
// aborts the run.
func (c *caller) mustPost(path string, v, out any) error {
	status, body, _, err := c.post(path, v)
	if err != nil {
		return fmt.Errorf("POST %s: %w", path, err)
	}
	if status/100 != 2 {
		return fmt.Errorf("POST %s: status %d: %s", path, status, bytes.TrimSpace(body))
	}
	if out != nil {
		return json.Unmarshal(body, out)
	}
	return nil
}

// path and payload give a scripted request's endpoint and JSON body.
func (r request) path() string {
	return [...]string{"/v1/observe", "/v1/observebatch", "/v1/rank"}[r.kind]
}

func (r request) payload(tds []*tenantData) any {
	name := tds[r.tenant].name
	switch r.kind {
	case kindObserve:
		o := r.obs[0]
		return serve.ObserveRequest{Tenant: name, User: o.User, Item: o.Item, Option: o.Option}
	case kindObserveBatch:
		return serve.ObserveBatchRequest{Tenant: name, Observations: r.obs}
	}
	return serve.RankRequest{Tenant: name}
}

// loadTenants creates every tenant and preloads the given cells through
// /v1/observebatch. Only the in-memory set-up and the untimed writing of
// the durable data directory call it.
func loadTenants(c *caller, tds []*tenantData, cells func(*tenantData) []cell) error {
	for _, td := range tds {
		if err := c.mustPost("/v1/tenants", serve.CreateTenantRequest{
			Name: td.name, Users: td.spec.users, Items: td.spec.items, Options: []int{td.spec.options},
		}, nil); err != nil {
			return err
		}
		if err := preload(c, td, cells(td)); err != nil {
			return err
		}
	}
	return nil
}

// preload writes cells with their pass-0 answers in preloadBatch chunks.
func preload(c *caller, td *tenantData, cells []cell) error {
	obs := make([]serve.Observation, 0, preloadBatch)
	for len(cells) > 0 {
		n := min(len(cells), preloadBatch)
		obs = obs[:0]
		for _, cl := range cells[:n] {
			obs = append(obs, serve.Observation{User: int(cl.user), Item: int(cl.item), Option: td.answer(cl, 0)})
		}
		if err := c.mustPost("/v1/observebatch", serve.ObserveBatchRequest{Tenant: td.name, Observations: obs}, nil); err != nil {
			return err
		}
		cells = cells[n:]
	}
	return nil
}

// exactRank ranks one tenant until the response is exact (staleness 0),
// polling while the refresh scheduler catches up with a staleness bound.
func exactRank(c *caller, td *tenantData) (serve.RankResponse, error) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		var rr serve.RankResponse
		if err := c.mustPost("/v1/rank", serve.RankRequest{Tenant: td.name}, &rr); err != nil {
			return rr, err
		}
		if rr.Staleness == 0 {
			return rr, nil
		}
		if time.Now().After(deadline) {
			return rr, fmt.Errorf("tenant %s: rank still %d generations stale", td.name, rr.Staleness)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// setup builds one serving environment holding every tenant's preloaded
// state and returns it with its set-up time: from serve.New to the first
// exact rank of every tenant. The durable workload restarts over a fresh
// copy of the pristine data directory (copied before the clock starts),
// so set-up is recovery.
func setup(w *workload, tds []*tenantData, pristine, dataDir string, counts *phaseCounts) (*env, time.Duration, error) {
	if w.durable {
		if err := os.RemoveAll(dataDir); err != nil {
			return nil, 0, err
		}
		if err := copyDir(pristine, dataDir); err != nil {
			return nil, 0, err
		}
	}
	quiesce()
	start := time.Now()
	e, err := startEnv(w, serverConfig(w, dataDir))
	if err != nil {
		return nil, 0, err
	}
	c := &caller{e: e, counts: counts}
	if !w.durable {
		if err := loadTenants(c, tds, func(td *tenantData) []cell { return td.preload }); err != nil {
			e.close()
			return nil, 0, err
		}
	}
	for _, td := range tds {
		if _, err := exactRank(c, td); err != nil {
			e.close()
			return nil, 0, err
		}
	}
	return e, time.Since(start), nil
}

// writePristine writes the durable workload's data directory, untimed:
// a first server loads three quarters of the preload and closes, a second
// reopens (checkpointing it as a snapshot) and writes the rest to its WAL.
// Background snapshots are off, so the directory's bytes are a pure
// function of the seed and every restart replays the same snapshot + tail.
func writePristine(w *workload, tds []*tenantData, dir string) error {
	cfg := serverConfig(w, dir)
	cfg.SnapshotEvery = -1
	var counts phaseCounts
	e, err := startEnv(w, cfg)
	if err != nil {
		return err
	}
	c := &caller{e: e, counts: &counts}
	if err := loadTenants(c, tds, func(td *tenantData) []cell { return td.preload[:len(td.preload)-len(td.restartTail())] }); err != nil {
		e.close()
		return err
	}
	if err := e.close(); err != nil {
		return err
	}
	if e, err = startEnv(w, cfg); err != nil {
		return err
	}
	c.e = e
	for _, td := range tds {
		if err := preload(c, td, td.restartTail()); err != nil {
			e.close()
			return err
		}
	}
	return e.close()
}

// restartTail is the part of a tenant's preload that the durable data
// directory holds as WAL records past its snapshot: the last quarter.
func (td *tenantData) restartTail() []cell {
	return td.preload[len(td.preload)*3/4:]
}

// quiesce collects the heap and flushes the file system's dirty data and
// journal (earlier set-ups' copies and deletions, an earlier run's
// leftovers), so a measurement starts from the same state each time
// instead of paying for writeback it did not cause.
func quiesce() {
	runtime.GC()
	syscall.Sync()
}

// copyDir copies a directory tree of regular files, syncing each file as
// a durable data directory would be.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		if err := out.Sync(); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}
