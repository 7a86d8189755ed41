package main

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"nocap"
	"nocap/internal/cluster"
	"nocap/internal/jobs"
	"nocap/internal/server"
)

// serviceClients is the closed-loop client count of every service
// workload: one per core of the two-core box the bounds were set on,
// each with its own keep-alive connection.
const serviceClients = 2

// pollEvery is how often a job client polls GET /jobs/{id}.
const pollEvery = 2 * time.Millisecond

// service is an in-process nocap-serve reached over loopback HTTP, plus
// any in-process worker nodes attached to it.
type service struct {
	cfg     server.Config
	srv     *server.Server
	served  chan error
	base    string
	http    *http.Client
	workers []*cluster.Worker
}

// bootService starts the server (and nWorkers cluster workers running
// the real prover), and returns once it is ready to take the workload's
// requests: journal replayed, every worker registered.
func bootService(cfg server.Config, nWorkers int) (*service, error) {
	cfg.Addr = "127.0.0.1:0"
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	addr, err := srv.Listen()
	if err != nil {
		return nil, err
	}
	s := &service{
		cfg:    cfg.Normalize(),
		srv:    srv,
		served: make(chan error, 1),
		base:   "http://" + addr.String(),
		http: &http.Client{
			Timeout:   2 * time.Minute,
			Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serviceClients},
		},
	}
	go func() { s.served <- srv.Serve() }()

	prover := cluster.NewProver(cluster.ProverConfig{Params: s.cfg.Params, MaxN: s.cfg.MaxN})
	for i := range nWorkers {
		w, err := cluster.NewWorker(cluster.WorkerConfig{
			Coordinator: s.base,
			ID:          fmt.Sprintf("bench-w%d", i),
			Slots:       1,
			Exec:        prover.Exec,
			BatchExec:   prover.BatchExec,
			Seed:        int64(100 + i),
		})
		if err != nil {
			_ = s.close()
			return nil, err
		}
		w.Start()
		s.workers = append(s.workers, w)
	}
	if err := s.awaitReady(nWorkers); err != nil {
		_ = s.close()
		return nil, err
	}
	return s, nil
}

func (s *service) awaitReady(nWorkers int) error {
	deadline := time.Now().Add(15 * time.Second)
	for {
		ready := s.cfg.DataDir == ""
		if !ready {
			status, _, err := s.do(http.MethodGet, "/readyz", nil)
			ready = err == nil && status == http.StatusOK
		}
		live := 0
		if nWorkers > 0 {
			var body struct {
				Cluster struct {
					LiveNodes int `json:"live_nodes"`
				} `json:"cluster"`
			}
			if _, data, err := s.do(http.MethodGet, "/healthz", nil); err == nil && json.Unmarshal(data, &body) == nil {
				live = body.Cluster.LiveNodes
			}
		}
		if ready && live >= nWorkers {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("service never came up (ready=%v, %d/%d workers live)", ready, live, nWorkers)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (s *service) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	for _, w := range s.workers {
		errs = append(errs, w.Stop(ctx))
	}
	errs = append(errs, s.srv.Shutdown(ctx), <-s.served)
	s.http.CloseIdleConnections()
	return errors.Join(errs...)
}

// do sends one request and reads the whole reply.
func (s *service) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func (s *service) counters() (promSample, error) {
	status, data, err := s.do(http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics: status %d", status)
	}
	return parseProm(bytes.NewReader(data))
}

func (s *service) baseParams() nocap.Params { return s.cfg.Params }

func (s *service) describe() map[string]any {
	c := s.cfg
	return map[string]any{
		"clients": serviceClients,
		"params":  describeParams(c.Params, 1),
		"server": map[string]any{
			"workers": c.Workers, "queue_depth": c.QueueDepth, "cache_mb": c.CacheMB,
			"memory_budget_mb": c.MemoryBudgetMB, "max_n": c.MaxN,
			"data_dir": c.DataDir != "", "job_workers": c.JobWorkers, "job_max_pending": c.JobMaxPending,
			"job_batch_window_ms": ms(c.JobBatchWindow), "job_batch_max": c.JobBatchMax,
			"cluster": c.ClusterEnabled, "cluster_local_fallback": c.ClusterLocalFallback,
			"cluster_lease_ttl_ms": ms(c.ClusterLeaseTTL), "cluster_workers": len(s.workers),
		},
	}
}

// syntheticPadded is the constraint count circuits.Synthetic(n) pads
// to: the next power of two (TestStatedStatementSizes checks it against
// the circuits).
func syntheticPadded(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// request is a statement with what the harness expects of the reply.
type request struct {
	stmt        statement
	constraints int
}

func syntheticRequest(n int) request {
	return request{statement{"synthetic", n, 1}, syntheticPadded(n)}
}

func proveBody(st statement) ([]byte, error) {
	return json.Marshal(server.ProveRequest{Circuit: st.Circuit, N: st.N})
}

// syncWorkload is serve-sync-unique and serve-sync-hot: POST /prove,
// wait for the proof.
type syncWorkload struct {
	*service
	// next yields a client's next request; ok is false when the
	// workload has run out of distinct statements.
	next func(client int) (request, bool)
	// wantCached is the cached flag every reply must carry.
	wantCached bool
	// verifyEvery posts every k-th reply of a client back to /verify
	// (0: never).
	verifyEvery int
}

func (w *syncWorkload) step(client int, traced bool, log *clientLog) bool {
	req, ok := w.next(client)
	if !ok {
		return false
	}
	tr := log.tracer(traced)
	rec := newOpRec(traced, req.stmt, req.constraints)
	// A step that also sends its reply to /verify does more than its
	// class-mates; its cycle is not comparable with theirs.
	verifies := w.verifyEvery > 0 && (len(log.ops)+1)%w.verifyEvery == 0
	if verifies {
		rec.class += "+verify"
	}
	root := tr.begin("op", -1)
	start := time.Now()
	resp, proof, err := w.prove(tr, root, req.stmt)
	rec.latency = time.Since(start)
	tr.end(root)
	switch {
	case err != nil:
		rec.fail = err.Error()
	case resp.Cached != w.wantCached:
		rec.fail = fmt.Sprintf("prove %v: cached=%v, want %v", req.stmt, resp.Cached, w.wantCached)
	default:
		rec.proofBytes = len(proof)
		rec.hasReply, rec.queueMS, rec.proveMS = true, resp.QueueMS, resp.ElapsedMS
		log.keep(retained{stmt: req.stmt, data: proof})
	}
	if tr != nil {
		rec.spans = tr.spans
	}
	log.ops = append(log.ops, rec)
	if verifies && rec.fail == "" {
		w.verify(req.stmt, resp.ProofB64, log)
	}
	return true
}

func (w *syncWorkload) prove(tr *tracer, root int, st statement) (server.ProveResponse, []byte, error) {
	var resp server.ProveResponse
	sp := tr.begin("client.encode", root)
	body, err := proveBody(st)
	tr.end(sp)
	if err != nil {
		return resp, nil, err
	}
	sp = tr.begin("http.prove", root)
	status, data, err := w.do(http.MethodPost, "/prove", body)
	tr.end(sp)
	if err != nil {
		return resp, nil, fmt.Errorf("prove %v: %w", st, err)
	}
	if status != http.StatusOK {
		return resp, nil, fmt.Errorf("prove %v: status %d: %.200s", st, status, data)
	}
	sp = tr.begin("client.decode", root)
	err = json.Unmarshal(data, &resp)
	var proof []byte
	if err == nil {
		proof, err = base64.StdEncoding.DecodeString(resp.ProofB64)
	}
	tr.end(sp)
	if err != nil {
		return resp, nil, fmt.Errorf("prove %v: decode reply: %w", st, err)
	}
	if len(proof) != resp.ProofBytes {
		return resp, nil, fmt.Errorf("prove %v: proof_bytes=%d but %d decoded", st, resp.ProofBytes, len(proof))
	}
	return resp, proof, nil
}

// verify is the read beside the write: the reply just received goes
// back to POST /verify, outside the prove operation's latency.
func (w *syncWorkload) verify(st statement, proofB64 string, log *clientLog) {
	body, err := json.Marshal(server.VerifyRequest{Circuit: st.Circuit, N: st.N, ProofB64: proofB64})
	if err != nil {
		log.fails = append(log.fails, err.Error())
		return
	}
	start := time.Now()
	status, data, err := w.do(http.MethodPost, "/verify", body)
	took := time.Since(start)
	var resp server.VerifyResponse
	if err == nil && status == http.StatusOK {
		err = json.Unmarshal(data, &resp)
	}
	switch {
	case err != nil:
		log.fails = append(log.fails, fmt.Sprintf("verify %v: %v", st, err))
	case status != http.StatusOK:
		log.fails = append(log.fails, fmt.Sprintf("verify %v: status %d: %.200s", st, status, data))
	case !resp.Valid:
		log.fails = append(log.fails, fmt.Sprintf("verify %v: valid=false (%s)", st, resp.Code))
	default:
		log.verifyMS = append(log.verifyMS, ms(took))
	}
}

func (w *syncWorkload) proofs(logs []*clientLog) ([]retained, error) { return latest(logs), nil }

// jobsWorkload is jobs-async, jobs-batch and cluster-2w: POST /jobs,
// then poll GET /jobs/{id} to a terminal state. One step submits a
// burst of `burst` jobs and awaits them all; the operation is one job.
type jobsWorkload struct {
	*service
	next  func(client int) request
	burst int
}

type pendingJob struct {
	id    string
	req   request
	start time.Time
	tr    *tracer
	root  int
	rec   opRec
}

func (w *jobsWorkload) step(client int, traced bool, log *clientLog) bool {
	pending := make([]*pendingJob, 0, w.burst)
	for i := range w.burst {
		req := w.next(client)
		j := &pendingJob{req: req, tr: log.tracer(traced), rec: newOpRec(traced, req.stmt, req.constraints)}
		if w.burst > 1 {
			// A job's latency depends on its place in the burst: each
			// place is a class of its own.
			j.rec.class += "#" + strconv.Itoa(i)
		}
		j.root = j.tr.begin("op", -1)
		j.start = time.Now()
		if err := w.submit(j); err != nil {
			w.finish(j, err, log)
			continue
		}
		pending = append(pending, j)
	}
	deadline := time.Now().Add(time.Minute)
	for len(pending) > 0 {
		time.Sleep(pollEvery)
		still := pending[:0]
		for _, j := range pending {
			done, err := w.poll(j)
			switch {
			case err != nil || done:
				w.finish(j, err, log)
			case time.Now().After(deadline):
				w.finish(j, fmt.Errorf("job %s not terminal after a minute", j.id), log)
			default:
				still = append(still, j)
			}
		}
		pending = still
	}
	return true
}

func (w *jobsWorkload) submit(j *pendingJob) error {
	sp := j.tr.begin("jobs.submit", j.root)
	defer j.tr.end(sp)
	body, err := proveBody(j.req.stmt)
	if err != nil {
		return err
	}
	status, data, err := w.do(http.MethodPost, "/jobs", body)
	if err != nil {
		return fmt.Errorf("submit %v: %w", j.req.stmt, err)
	}
	if status != http.StatusAccepted {
		return fmt.Errorf("submit %v: status %d: %.200s", j.req.stmt, status, data)
	}
	var resp server.JobResponse
	if err := json.Unmarshal(data, &resp); err != nil || resp.ID == "" {
		return fmt.Errorf("submit %v: bad reply %.200s", j.req.stmt, data)
	}
	j.id = resp.ID
	return nil
}

// poll asks for the job's state once; done means it reached `done`, any
// other terminal state is an error.
func (w *jobsWorkload) poll(j *pendingJob) (done bool, err error) {
	j.rec.polls++
	sp := j.tr.begin("jobs.poll", j.root)
	status, data, err := w.do(http.MethodGet, "/jobs/"+j.id, nil)
	j.tr.end(sp)
	if err != nil {
		return false, fmt.Errorf("poll %s: %w", j.id, err)
	}
	if status != http.StatusOK {
		return false, fmt.Errorf("poll %s: status %d: %.200s", j.id, status, data)
	}
	var resp server.JobResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return false, fmt.Errorf("poll %s: %w", j.id, err)
	}
	if !jobs.State(resp.State).Terminal() {
		return false, nil
	}
	if resp.State != string(jobs.StateDone) {
		return false, fmt.Errorf("job %s ended %q (%s %s)", j.id, resp.State, resp.Code, resp.Error)
	}
	if resp.Cached {
		return false, fmt.Errorf("job %s: cached=true with the cache off", j.id)
	}
	j.rec.proofBytes = resp.ProofBytes
	return true, nil
}

func (w *jobsWorkload) finish(j *pendingJob, err error, log *clientLog) {
	j.rec.latency = time.Since(j.start)
	j.tr.end(j.root)
	if err != nil {
		j.rec.fail = err.Error()
	} else {
		log.keep(retained{stmt: j.req.stmt, jobID: j.id})
	}
	if j.tr != nil {
		j.rec.spans = j.tr.spans
	}
	log.ops = append(log.ops, j.rec)
}

// proofs fetches the payloads of the most recent done jobs: polls
// return only the proof's size, the proof itself costs one more GET.
func (w *jobsWorkload) proofs(logs []*clientLog) ([]retained, error) {
	kept := latest(logs)
	for i := range kept {
		status, data, err := w.do(http.MethodGet, "/jobs/"+kept[i].jobID+"?proof=1", nil)
		if err != nil {
			return nil, fmt.Errorf("fetch proof of %s: %w", kept[i].jobID, err)
		}
		var resp server.JobResponse
		if status != http.StatusOK || json.Unmarshal(data, &resp) != nil {
			return nil, fmt.Errorf("fetch proof of %s: status %d: %.200s", kept[i].jobID, status, data)
		}
		if kept[i].data, err = base64.StdEncoding.DecodeString(resp.ProofB64); err != nil {
			return nil, fmt.Errorf("fetch proof of %s: %w", kept[i].jobID, err)
		}
	}
	return kept, nil
}

// dataDir makes a fresh journal directory under the run's work dir.
func dataDir(rc *runConfig) (string, error) {
	dir := filepath.Join(rc.workDir, "data")
	return dir, os.MkdirAll(dir, 0o755)
}

func newServeUnique(rc *runConfig) (instance, error) {
	svc, err := bootService(server.Config{Workers: 2, CacheMB: 64}, 0)
	if err != nil {
		return nil, err
	}
	d := &drawer{perm: evenPerm(rc.seed, 4096, 8192)}
	return &syncWorkload{
		service: svc,
		next: func(int) (request, bool) {
			n, ok := d.draw()
			return syntheticRequest(n), ok
		},
		verifyEvery: 4,
	}, nil
}

// hotStatements are serve-sync-hot's six fixed statements in zipf rank
// order.
var hotStatements = []request{
	syntheticRequest(4096),
	syntheticRequest(1024),
	{statement{"rsa", 8, 1}, 1 << 13},
	{statement{"auction", 64, 1}, 1 << 13},
	{statement{"sha", 1, 1}, 1 << 16},
	{statement{"aes", 1, 1}, 1 << 17},
}

func newServeHot(rc *runConfig) (instance, error) {
	svc, err := bootService(server.Config{Workers: 2, CacheMB: 64}, 0)
	if err != nil {
		return nil, err
	}
	w := &syncWorkload{service: svc, wantCached: true}
	// Fill the cache: the first prove of each statement is the only
	// uncached reply the server ever gives.
	for _, req := range hotStatements {
		if resp, _, err := w.prove(nil, -1, req.stmt); err != nil || resp.Cached {
			_ = svc.close()
			return nil, fmt.Errorf("cache fill %v: cached=%v err=%v", req.stmt, resp.Cached, err)
		}
	}
	draws := make([]*zipf, serviceClients)
	for c := range draws {
		draws[c] = newZipf(clientSeed(rc.seed, c), len(hotStatements), 1.1)
	}
	w.next = func(client int) (request, bool) { return hotStatements[draws[client].draw()], true }
	return w, nil
}

func newJobsAsync(rc *runConfig) (instance, error) {
	dir, err := dataDir(rc)
	if err != nil {
		return nil, err
	}
	svc, err := bootService(server.Config{Workers: 2, DataDir: dir}, 0)
	if err != nil {
		return nil, err
	}
	d := &drawer{perm: evenPerm(rc.seed, 512, 1024), wrap: true}
	return &jobsWorkload{service: svc, burst: 1, next: func(int) request {
		n, _ := d.draw()
		return syntheticRequest(n)
	}}, nil
}

func newJobsBatch(rc *runConfig) (instance, error) {
	dir, err := dataDir(rc)
	if err != nil {
		return nil, err
	}
	svc, err := bootService(server.Config{
		Workers: 2, DataDir: dir, JobBatchWindow: 5 * time.Millisecond, JobBatchMax: 8,
	}, 0)
	if err != nil {
		return nil, err
	}
	return &jobsWorkload{service: svc, burst: 8, next: func(int) request { return syntheticRequest(4096) }}, nil
}

func newCluster(rc *runConfig) (instance, error) {
	dir, err := dataDir(rc)
	if err != nil {
		return nil, err
	}
	svc, err := bootService(server.Config{
		Workers: 2, DataDir: dir, ClusterEnabled: true, ClusterLeaseTTL: 3 * time.Second,
		ClusterSeed: 1,
	}, 2)
	if err != nil {
		return nil, err
	}
	d := &drawer{perm: evenPerm(rc.seed, 2048, 4096), wrap: true}
	return &jobsWorkload{service: svc, burst: 1, next: func(int) request {
		n, _ := d.draw()
		return syntheticRequest(n)
	}}, nil
}
