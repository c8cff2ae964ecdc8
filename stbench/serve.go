package main

// serve-hot and serve-cold call server.Handler().ServeHTTP in-process with
// one closed-loop client: the next request starts when the previous one has
// returned. No socket and no second process share the two cores, so the
// figures are the handler's own. Each handler call is timed alone; building
// the request and checking the answer happen outside the timed span.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"time"

	stenciltune "repro"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/feature"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/perfmodel"
	"repro/internal/server"
	"repro/internal/shape"
	"repro/internal/stencil"
	"repro/internal/store"
	"repro/internal/tunespace"
	"repro/internal/wal"
)

const (
	// The served model is retrained in every set-up, at a fixed seed, so it
	// always matches the code under test.
	servedPoints = 960
	servedSeed   = 1
	// setupRepeats set-ups run per run; setup_s is their median.
	setupRepeats = 5
	zipfS        = 1.1
	catalogSize  = 64
	rankCands    = 32 // candidates per /v1/rank request
	predictVecs  = 4  // vectors per /v1/predict request
	observations = 2  // observations per /v1/observe request
	hybridTopK   = 8
	stageMetric  = "stencilserve_stage_duration_seconds"
)

var (
	kernels2D = []string{"blur", "edge", "game-of-life"}
	kernels3D = []string{"laplacian", "tricubic", "gradient", "wave-1", "divergence", "laplacian6"}
	sizes2D   = [][3]int{{256, 256, 1}, {512, 512, 1}, {1024, 1024, 1}, {2048, 2048, 1},
		{1024, 768, 1}, {768, 1024, 1}, {512, 2048, 1}, {4096, 4096, 1}}
	sizes3D = [][3]int{{64, 64, 64}, {128, 128, 128}, {256, 256, 256}, {96, 96, 96},
		{192, 192, 192}, {128, 128, 256}, {256, 128, 64}, {512, 512, 64}}
)

// vectorJSON is the wire form of a tuning vector.
type vectorJSON struct {
	Bx int `json:"bx"`
	By int `json:"by"`
	Bz int `json:"bz"`
	U  int `json:"u"`
	C  int `json:"c"`
	K  int `json:"k"`
}

func wireVector(v tunespace.Vector) vectorJSON {
	return vectorJSON{v.Bx, v.By, v.Bz, v.U, v.C, v.EffFuse()}
}

func (v vectorJSON) vector() tunespace.Vector {
	return tunespace.Vector{Bx: v.Bx, By: v.By, Bz: v.Bz, U: v.U, C: v.C, K: v.K}
}

type tuneAnswer struct {
	Best             vectorJSON `json:"best"`
	RankedCandidates int        `json:"ranked_candidates"`
	Hybrid           *struct {
		TopK      int        `json:"topk"`
		Best      vectorJSON `json:"best"`
		BestValue float64    `json:"best_value_seconds"`
	} `json:"hybrid"`
}

type rankAnswer struct {
	Candidates int        `json:"candidates"`
	Order      []int      `json:"order"`
	Best       vectorJSON `json:"best"`
}

type predictAnswer struct {
	Values []float64 `json:"values"`
}

type observeAnswer struct {
	Accepted int `json:"accepted"`
	Dropped  int `json:"dropped"`
}

// serveEnv is one set-up: a freshly trained and stored model behind a new
// server with a WAL in the run's scratch directory.
type serveEnv struct {
	srv     *server.Server
	h       http.Handler
	reg     *obs.Registry
	log     *wal.Log
	walDir  string
	artDir  string
	walOpen bool
}

func setupServe(cfg runConfig, i int) (*serveEnv, error) {
	dir := filepath.Join(cfg.dir, fmt.Sprintf("serve-%d", i))
	m, _, err := stenciltune.Train(stenciltune.TrainOptions{TrainingPoints: servedPoints, Seed: servedSeed, Workers: 1})
	if err != nil {
		return nil, fmt.Errorf("training the served model: %w", err)
	}
	models := filepath.Join(dir, "models")
	if err := stenciltune.SaveModel(models, "default", m); err != nil {
		return nil, fmt.Errorf("saving the served model: %w", err)
	}
	walDir := filepath.Join(dir, "wal")
	log, _, err := wal.Open(walDir, wal.Options{})
	if err != nil {
		return nil, fmt.Errorf("opening the WAL: %w", err)
	}
	reg := obs.NewRegistry()
	srv, err := server.New(server.Config{ModelDir: models, WAL: log, Registry: reg, Machine: "stbench"})
	if err != nil {
		log.Close()
		return nil, fmt.Errorf("starting the server: %w", err)
	}
	return &serveEnv{srv: srv, h: srv.Handler(), reg: reg, log: log, walDir: walDir,
		artDir: filepath.Join(models, "default"), walOpen: true}, nil
}

// close flushes the server's observation sink, then closes the WAL.
func (e *serveEnv) close() error {
	e.srv.Close()
	if !e.walOpen {
		return nil
	}
	e.walOpen = false
	return e.log.Close()
}

type answer struct {
	code  int
	cache string
	body  []byte
	dur   time.Duration
}

// serve times one handler call.
func (e *serveEnv) serve(path string, body []byte) answer {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	start := time.Now()
	e.h.ServeHTTP(rec, req)
	d := time.Since(start)
	return answer{rec.Code, rec.Header().Get("X-Cache"), rec.Body.Bytes(), d}
}

func (e *serveEnv) stageSum(stage string) float64 { return e.reg.Value(stageMetric, stage) }

// checker recomputes answers independently of the serving path: scores are
// W·x with W read from the artifact's model.json, and simulated runtimes
// come from a perfmodel built here.
type checker struct {
	w   []float64
	enc *feature.Encoder
	sim *perfmodel.Model
}

func newChecker(artDir string) (*checker, error) {
	w, err := readWeights(artDir)
	if err != nil {
		return nil, err
	}
	return &checker{w: w, enc: feature.NewEncoder(), sim: perfmodel.New(machine.XeonE52680v3())}, nil
}

func (c *checker) tune(q stencil.Instance, body []byte) error {
	var a tuneAnswer
	if err := json.Unmarshal(body, &a); err != nil {
		return fmt.Errorf("tune %s: %v", q.ID(), err)
	}
	cands := tunespace.NewSpace(q.Kernel.Dims()).Predefined()
	if a.RankedCandidates != len(cands) {
		return fmt.Errorf("tune %s ranked %d candidates, the predefined set has %d", q.ID(), a.RankedCandidates, len(cands))
	}
	scores := scoresOf(c.w, c.enc, q, cands)
	if err := checkArgmax(scores, indexOf(cands, a.Best.vector())); err != nil {
		return fmt.Errorf("tune %s: %v", q.ID(), err)
	}
	if a.Hybrid == nil {
		return nil
	}
	if err := c.hybrid(q, cands, scores, a.Hybrid.Best.vector(), a.Hybrid.BestValue); err != nil {
		return fmt.Errorf("tune %s topk=%d: %v", q.ID(), a.Hybrid.TopK, err)
	}
	return nil
}

// hybrid requires the pick to be among the top-k by score, to carry its
// simulated runtime, and to be no slower than any candidate strictly inside
// the top k.
func (c *checker) hybrid(q stencil.Instance, cands []tunespace.Vector, scores []float64, pick tunespace.Vector, value float64) error {
	ranked := sorted(scores)
	kth := ranked[len(ranked)-hybridTopK]
	i := indexOf(cands, pick)
	if i < 0 || scores[i] < kth-scoreTol(kth) {
		return fmt.Errorf("pick %v is not in the top %d", pick, hybridTopK)
	}
	if err := checkEqualValues([]float64{value}, []float64{c.sim.Runtime(q, pick)}); err != nil {
		return fmt.Errorf("pick runtime: %v", err)
	}
	for j, s := range scores {
		if s > kth+scoreTol(kth) && c.sim.Runtime(q, cands[j]) < value {
			return fmt.Errorf("top-%d candidate %v is faster than the pick", hybridTopK, cands[j])
		}
	}
	return nil
}

func (c *checker) rank(q stencil.Instance, cands []tunespace.Vector, body []byte) error {
	var a rankAnswer
	if err := json.Unmarshal(body, &a); err != nil {
		return fmt.Errorf("rank %s: %v", q.ID(), err)
	}
	if err := checkRankOrder(scoresOf(c.w, c.enc, q, cands), a.Order); err != nil {
		return fmt.Errorf("rank %s: %v", q.ID(), err)
	}
	if a.Candidates != len(cands) || a.Best.vector() != cands[a.Order[0]] {
		return fmt.Errorf("rank %s: best %v is not the first of its order", q.ID(), a.Best)
	}
	return nil
}

func (c *checker) predict(q stencil.Instance, vs []tunespace.Vector, body []byte) error {
	var a predictAnswer
	if err := json.Unmarshal(body, &a); err != nil {
		return fmt.Errorf("predict %s: %v", q.ID(), err)
	}
	want := make([]float64, len(vs))
	for i, v := range vs {
		want[i] = c.sim.Runtime(q, v)
	}
	if err := checkEqualValues(a.Values, want); err != nil {
		return fmt.Errorf("predict %s: %v", q.ID(), err)
	}
	return nil
}

func sizeString(s [3]int) string {
	if s[2] == 1 {
		return fmt.Sprintf("%dx%d", s[0], s[1])
	}
	return fmt.Sprintf("%dx%dx%d", s[0], s[1], s[2])
}

func instanceOf(k *stencil.Kernel, s [3]int) stencil.Instance {
	if s[2] == 1 {
		return stencil.Instance{Kernel: k, Size: stencil.Size2D(s[0], s[1])}
	}
	return stencil.Instance{Kernel: k, Size: stencil.Size3D(s[0], s[1], s[2])}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

func drawVectors(rng *rand.Rand, dims, n int) []tunespace.Vector {
	pre := tunespace.NewSpace(dims).Predefined()
	out := make([]tunespace.Vector, n)
	for i := range out {
		out[i] = pre[rng.Intn(len(pre))]
	}
	return out
}

func wireVectors(vs []tunespace.Vector) []vectorJSON {
	out := make([]vectorJSON, len(vs))
	for i, v := range vs {
		out[i] = wireVector(v)
	}
	return out
}

// ---------------------------------------------------------------------------
// serve-hot

const (
	opTune = iota
	opRank
	opPredict
	opObserve
)

var opNames = []string{"tune", "rank", "predict", "observe"}
var opPaths = []string{"/v1/tune", "/v1/rank", "/v1/predict", "/v1/observe"}

// entry is one catalog key: a Table III kernel at one size, with the
// candidate set its rank requests carry and the vectors its predict
// requests carry.
type entry struct {
	name   string
	q      stencil.Instance
	cands  []tunespace.Vector
	vecs   []tunespace.Vector
	bodies [3][]byte // tune, rank, predict
	first  [3][]byte // the answer each key gave first
}

// catalog lists distinct Table III kernel × size keys, two 3-D keys to one
// 2-D key, with the kernels interleaved so every band of Zipf ranks mixes
// kernels. The order is fixed; the seed draws the rank and predict vectors.
func catalog(rng *rand.Rand) ([]*entry, error) {
	var all []*entry
	n2, n3 := 0, 0
	for len(all) < catalogSize {
		var (
			name string
			size [3]int
		)
		if len(all)%3 == 2 {
			name, size = kernels2D[n2%len(kernels2D)], sizes2D[n2/len(kernels2D)]
			n2++
		} else {
			name, size = kernels3D[n3%len(kernels3D)], sizes3D[n3/len(kernels3D)]
			n3++
		}
		k, err := stencil.KernelByName(name)
		if err != nil {
			return nil, err
		}
		e := &entry{name: name, q: instanceOf(k, size)}
		dims := k.Dims()
		e.cands, e.vecs = drawVectors(rng, dims, rankCands), drawVectors(rng, dims, predictVecs)
		base := map[string]any{"kernel": name, "size": sizeString(size)}
		with := func(k string, v any) []byte {
			m := map[string]any{k: v}
			for k, v := range base {
				m[k] = v
			}
			return mustJSON(m)
		}
		e.bodies[opTune] = mustJSON(base)
		e.bodies[opRank] = with("candidates", wireVectors(e.cands))
		e.bodies[opPredict] = with("vectors", wireVectors(e.vecs))
		all = append(all, e)
	}
	return all, nil
}

func (c *checker) entryAnswer(e *entry, op int, body []byte) error {
	switch op {
	case opTune:
		return c.tune(e.q, body)
	case opRank:
		return c.rank(e.q, e.cands, body)
	default:
		return c.predict(e.q, e.vecs, body)
	}
}

type hotRequest struct {
	e    *entry
	op   int
	body []byte
	obs  []uint64 // observation keys of an observe request
}

// hotStream draws n requests: a Zipf draw over the catalog and a draw of the
// operation mix (tune 0.7, rank 0.15, predict 0.05, observe 0.1).
func hotStream(rng *rand.Rand, cat []*entry, n int) []hotRequest {
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(cat)-1))
	out := make([]hotRequest, n)
	for i := range out {
		e := cat[zipf.Uint64()]
		u := rng.Float64()
		r := hotRequest{e: e}
		switch {
		case u < 0.70:
			r.op = opTune
		case u < 0.85:
			r.op = opRank
		case u < 0.90:
			r.op = opPredict
		default:
			r.op = opObserve
		}
		if r.op != opObserve {
			r.body = e.bodies[r.op]
		} else {
			type obsJSON struct {
				Vector  vectorJSON `json:"vector"`
				Runtime float64    `json:"runtime_seconds"`
			}
			var list []obsJSON
			size := [3]int{e.q.Size.X, e.q.Size.Y, e.q.Size.Z}
			for _, v := range drawVectors(rng, e.q.Kernel.Dims(), observations) {
				rt := 1e-3 * (0.5 + rng.Float64())
				list = append(list, obsJSON{wireVector(v), rt})
				r.obs = append(r.obs, observationKey(e.name, size, walVector(v), rt))
			}
			r.body = mustJSON(map[string]any{"kernel": e.name, "size": sizeString(size), "observations": list})
		}
		out[i] = r
	}
	return out
}

// hotBlock is how many requests run between two looks at the clock.
const hotBlock = 256

func serveHot(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	rng := rand.New(rand.NewSource(cfg.seed))
	cat, err := catalog(rng)
	if err != nil {
		return nil, err
	}
	// Set-up warms the catalog: the first tune, rank and predict of each key.
	warm := func(e *serveEnv) [][3]answer {
		answers := make([][3]answer, len(cat))
		for i, en := range cat {
			for op := opTune; op <= opPredict; op++ {
				answers[i][op] = e.serve(opPaths[op], en.bodies[op])
			}
		}
		return answers
	}
	env, answers, setup, err := repeatSetup(cfg, warm)
	if err != nil {
		return nil, err
	}
	defer env.close()
	out.e2e["setup_s"] = setup

	chk, err := newChecker(env.artDir)
	if err != nil {
		return nil, err
	}
	for i, en := range cat {
		for op := opTune; op <= opPredict; op++ {
			a := answers[i][op]
			failed := a.code != http.StatusOK
			out.count("warm-"+opNames[op], failed)
			if failed {
				continue
			}
			en.first[op] = append([]byte(nil), a.body...)
			out.fail(chk.entryAnswer(en, op, a.body))
		}
	}

	hits0, miss0 := env.reg.Value("stencilserve_cache_hits_total"), env.reg.Value("stencilserve_cache_misses_total")
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var (
		durs       []time.Duration
		byOp       [4][]time.Duration
		routing    []time.Duration
		byName     []time.Duration
		lookups    []float64
		residuals  []float64
		offered    = map[uint64]int{}
		accepted   int
		nOffered   int
		readStream []hotRequest
	)
	start := time.Now()
	for time.Since(start) < cfg.seconds {
		for _, r := range hotStream(rng, cat, hotBlock) {
			var lookup0 float64
			if cfg.trace && r.op == opTune {
				t := time.Now()
				if _, ok := server.RoutingKey(r.body); !ok {
					out.fail(fmt.Errorf("RoutingKey rejected a tune body for %s", r.e.q.ID()))
				}
				routing = append(routing, time.Since(t))
				t = time.Now()
				if _, err := stencil.KernelByName(r.e.name); err != nil {
					out.fail(err)
				}
				byName = append(byName, time.Since(t))
				lookup0 = env.stageSum("cache_lookup")
			}
			a := env.serve(opPaths[r.op], r.body)
			durs = append(durs, a.dur)
			if cfg.trace {
				byOp[r.op] = append(byOp[r.op], a.dur)
			}
			if cfg.trace && r.op == opTune {
				lookup := (env.stageSum("cache_lookup") - lookup0) * 1e6
				lookups = append(lookups, lookup)
				residuals = append(residuals, float64((a.dur-routing[len(routing)-1]).Nanoseconds())/1e3-lookup)
			}
			if r.op != opObserve {
				if len(readStream) < allocSample {
					readStream = append(readStream, r)
				}
				failed := a.code != http.StatusOK
				out.count(opNames[r.op], failed)
				if !failed {
					if err := checkCached(a, r.e.first[r.op]); err != nil {
						out.fail(fmt.Errorf("%s %s: %v", opNames[r.op], r.e.q.ID(), err))
					}
				}
				continue
			}
			var oa observeAnswer
			failed := a.code != http.StatusAccepted || json.Unmarshal(a.body, &oa) != nil ||
				oa.Accepted+oa.Dropped != len(r.obs) || oa.Dropped > 0
			out.count("observe", failed)
			for _, k := range r.obs {
				offered[k]++
			}
			nOffered += len(r.obs)
			accepted += oa.Accepted
		}
	}
	runtime.ReadMemStats(&ms1)
	out.endMeasured()
	hits, misses := env.reg.Value("stencilserve_cache_hits_total")-hits0, env.reg.Value("stencilserve_cache_misses_total")-miss0
	us := micros(durs)
	out.e2e["latency_p50_us"] = median(us)
	out.e2e["ops_per_s"] = windowedRate(durs)

	if cfg.trace {
		out.layers["server.tune_hit_us"] = median(micros(byOp[opTune]))
		out.layers["server.rank_hit_us"] = median(micros(byOp[opRank]))
		out.layers["server.predict_hit_us"] = median(micros(byOp[opPredict]))
		out.layers["server.observe_us"] = median(micros(byOp[opObserve]))
		out.layers["server.routing_key_us"] = median(micros(routing))
		out.layers["stencil.kernel_by_name_us"] = median(micros(byName))
		out.layers["server.stage_cache_lookup_us"] = median(lookups)
		out.layers["server.residual_us"] = median(residuals)
		out.layers["server.latency_p99_us"] = percentile(us, 99)
		out.layers["server.cache_hit_ratio"] = hits / (hits + misses)
		out.layers["runtime.gc_per_kreq"] = float64(ms1.NumGC-ms0.NumGC) * 1000 / float64(len(durs))
		allocs, bytesPer := hotAllocs(env, readStream)
		out.layers["server.allocs_per_request"] = allocs
		out.layers["server.bytes_per_request"] = bytesPer
	}

	// Closing flushes the sink; the reopened log must hold exactly the
	// accepted observations.
	if err := env.close(); err != nil {
		return nil, fmt.Errorf("closing the WAL: %w", err)
	}
	if cfg.trace {
		out.layers["wal.append_ratio"] = env.reg.Value("stencilserve_wal_appended_total") / float64(nOffered)
	}
	out.fail(checkWAL(env.walDir, offered, accepted))
	return out, nil
}

// checkCached requires a cached read to be a hit byte-identical to the
// key's first answer.
func checkCached(a answer, first []byte) error {
	if a.cache != "hit" || !bytes.Equal(a.body, first) {
		return fmt.Errorf("cached answer (X-Cache %q) differs from the key's first answer", a.cache)
	}
	return nil
}

// walVector is a tuning vector in the WAL record's [bx, by, bz, u, c, k] form.
func walVector(v tunespace.Vector) [6]int { return [6]int{v.Bx, v.By, v.Bz, v.U, v.C, v.EffFuse()} }

func checkWAL(dir string, offered map[uint64]int, accepted int) error {
	l, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return fmt.Errorf("reopening the WAL: %w", err)
	}
	n := l.Count()
	if err := l.Close(); err != nil {
		return err
	}
	if n != int64(accepted) {
		return fmt.Errorf("reopened WAL counts %d records, %d were accepted", n, accepted)
	}
	recs, _, err := wal.ReadAll(dir)
	if err != nil {
		return err
	}
	return checkWALRecords(offered, accepted, recs)
}

// allocSample is how many of the run's first reads hotAllocs replays.
const allocSample = 512

// hotAllocs counts heap allocations per cached read by replaying the run's
// first reads; nothing else allocates while they run.
func hotAllocs(env *serveEnv, stream []hotRequest) (allocs, bytesPer float64) {
	n := len(stream)
	reqs := make([]*http.Request, n)
	recs := make([]*httptest.ResponseRecorder, n)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodPost, opPaths[stream[i].op], bytes.NewReader(stream[i].body))
		recs[i] = httptest.NewRecorder()
	}
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := range reqs {
		env.h.ServeHTTP(recs[i], reqs[i])
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n), float64(b.TotalAlloc-a.TotalAlloc) / float64(n)
}

// repeatSetup runs the serving set-up setupRepeats times, each followed by
// after (timed with it), keeps the last and returns the median time.
func repeatSetup[T any](cfg runConfig, after func(*serveEnv) T) (*serveEnv, T, float64, error) {
	var (
		env   *serveEnv
		extra T
		times []float64
	)
	for i := 0; i < setupRepeats; i++ {
		if env != nil {
			if err := env.close(); err != nil {
				return nil, extra, 0, err
			}
		}
		runtime.GC()
		start := time.Now()
		e, err := setupServe(cfg, i)
		if err != nil {
			return nil, extra, 0, err
		}
		extra = after(e)
		times = append(times, time.Since(start).Seconds())
		env = e
	}
	return env, extra, median(times), nil
}

// ---------------------------------------------------------------------------
// serve-cold

// coldRequest is one distinct instance to tune.
type coldRequest struct {
	q    stencil.Instance
	topk int
	body []byte
}

// coldGen draws distinct instances in rounds of eight: three Table III 3-D
// kernels by name, three generated 3-D offset-list kernels of 7, 19 and 33
// points, one Table III 2-D kernel and one generated 2-D kernel of 13
// points. Named kernels cycle in a fixed order, so every run ranks the same
// mix; 3-D requests are three quarters, so the median sits inside the 3-D
// cost cluster. The first named and the first generated 3-D request of a
// round carry topk=8 sim: a quarter of all tunes.
type coldGen struct {
	rng   *rand.Rand
	round int
	seen  map[string]bool
}

func (g *coldGen) next() ([]coldRequest, error) {
	r := g.round
	g.round++
	var out []coldRequest
	for slot := 0; slot < 8; slot++ {
		var (
			k    *stencil.Kernel
			spec any
			err  error
		)
		threeD := slot < 6
		switch slot {
		case 0, 1, 2:
			name := kernels3D[(3*r+slot)%len(kernels3D)]
			k, err = stencil.KernelByName(name)
			spec = name
		case 6:
			name := kernels2D[r%len(kernels2D)]
			k, err = stencil.KernelByName(name)
			spec = name
		default:
			points := map[int]int{3: 7, 4: 19, 5: 33, 7: 13}[slot]
			k, spec = g.offsetKernel(points, threeD)
		}
		if err != nil {
			return nil, err
		}
		size := g.size(threeD)
		for g.seen[fmt.Sprint(spec, size)] {
			size = g.size(threeD)
		}
		g.seen[fmt.Sprint(spec, size)] = true
		req := map[string]any{"kernel": spec, "size": sizeString(size)}
		c := coldRequest{q: instanceOf(k, size)}
		if slot == 0 || slot == 3 {
			c.topk = hybridTopK
			req["topk"] = hybridTopK
			req["mode"] = "sim"
		}
		c.body = mustJSON(req)
		out = append(out, c)
	}
	return out, nil
}

func (g *coldGen) size(threeD bool) [3]int {
	if threeD {
		return [3]int{32 + g.rng.Intn(481), 32 + g.rng.Intn(481), 32 + g.rng.Intn(481)}
	}
	return [3]int{64 + g.rng.Intn(4033), 64 + g.rng.Intn(4033), 1}
}

// offsetKernel draws n distinct offsets within radius 2 (the centre always
// included) and returns the kernel the server builds from them.
func (g *coldGen) offsetKernel(n int, threeD bool) (*stencil.Kernel, any) {
	zr := 0
	if threeD {
		zr = 2
	}
	pts := [][]int{{0, 0, 0}}
	seen := map[[3]int]bool{{0, 0, 0}: true}
	for len(pts) < n {
		p := [3]int{g.rng.Intn(5) - 2, g.rng.Intn(5) - 2, g.rng.Intn(2*zr+1) - zr}
		if !seen[p] {
			seen[p] = true
			pts = append(pts, []int{p[0], p[1], p[2]})
		}
	}
	sh := shape.New()
	offsets := make([][]int, len(pts))
	for i, p := range pts {
		sh.Add(shape.Point{X: p[0], Y: p[1], Z: p[2]}, 1)
		offsets[i] = p
		if !threeD {
			offsets[i] = p[:2]
		}
	}
	return &stencil.Kernel{Name: "custom", Shape: sh, Buffers: 1, Type: stencil.Float32},
		map[string]any{"offsets": offsets}
}

// coldLayers times the public functions a cold tune goes through, called
// from here on the same instance.
type coldLayers struct {
	tuner                                  *core.Tuner
	sim                                    *perfmodel.Model
	predefined, encode, score, best, hybrd []time.Duration
	candidates                             int
}

// run calls what the handler's inference calls — Predefined, Best and, for
// hybrid requests, HybridTopK — and returns their summed time. Encode and
// ScoreBatch are timed apart as the split of Best.
func (l *coldLayers) run(c coldRequest) (time.Duration, error) {
	t := time.Now()
	cands := tunespace.NewSpace(c.q.Kernel.Dims()).Predefined()
	predefined := time.Since(t)
	l.predefined = append(l.predefined, predefined)
	t = time.Now()
	xs := make([]feature.Vector, len(cands))
	for i, v := range cands {
		xs[i] = l.tuner.Encoder.Encode(c.q, v)
	}
	l.encode = append(l.encode, time.Since(t))
	l.candidates += len(cands)
	t = time.Now()
	l.tuner.Model.ScoreBatch(xs)
	l.score = append(l.score, time.Since(t))
	t = time.Now()
	if _, err := l.tuner.Best(c.q, cands); err != nil {
		return 0, err
	}
	best := time.Since(t)
	l.best = append(l.best, best)
	if c.topk == 0 {
		return predefined + best, nil
	}
	// HybridTopK's time beyond ranking is the time its objective takes.
	var inObjective time.Duration
	eval := core.BatchObjectiveFor(dataset.Memoized(dataset.Batched(l.sim, -1)), c.q)
	timed := func(vs []tunespace.Vector) []float64 {
		t := time.Now()
		defer func() { inObjective += time.Since(t) }()
		return eval(vs)
	}
	t = time.Now()
	if _, err := l.tuner.HybridTopK(c.q, cands, c.topk, timed); err != nil {
		return 0, err
	}
	hybrid := time.Since(t)
	l.hybrd = append(l.hybrd, inObjective)
	return predefined + best + hybrid, nil
}

func serveCold(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	gen := &coldGen{rng: rand.New(rand.NewSource(cfg.seed)), seen: map[string]bool{}}
	env, _, setup, err := repeatSetup(cfg, func(*serveEnv) struct{} { return struct{}{} })
	if err != nil {
		return nil, err
	}
	defer env.close()
	out.e2e["setup_s"] = setup

	var layers *coldLayers
	if cfg.trace {
		art, err := store.LoadDir(env.artDir)
		if err != nil {
			return nil, err
		}
		layers = &coldLayers{tuner: core.New(art.Model), sim: perfmodel.New(machine.XeonE52680v3())}
	}
	type done struct {
		c    coldRequest
		body []byte
	}
	var (
		answers              []done
		durs, inferences     []time.Duration
		overheads, inferGaps []float64
	)
	start := time.Now()
	for time.Since(start) < cfg.seconds {
		round, err := gen.next()
		if err != nil {
			return nil, err
		}
		for _, c := range round {
			var called time.Duration
			if layers != nil {
				if called, err = layers.run(c); err != nil {
					return nil, err
				}
			}
			infer0 := env.stageSum("inference")
			a := env.serve("/v1/tune", c.body)
			durs = append(durs, a.dur)
			if layers != nil {
				inf := time.Duration((env.stageSum("inference") - infer0) * 1e9)
				inferences = append(inferences, inf)
				inferGaps = append(inferGaps, float64((inf-called).Nanoseconds())/1e3)
				overheads = append(overheads, float64((a.dur-inf).Nanoseconds())/1e3)
			}
			failed := a.code != http.StatusOK
			out.count("tune", failed)
			if !failed && a.cache != "miss" {
				out.fail(fmt.Errorf("tune %s answered from %q, want a cache miss", c.q.ID(), a.cache))
			}
			if !failed {
				answers = append(answers, done{c, append([]byte(nil), a.body...)})
			}
		}
	}
	out.endMeasured()
	us := micros(durs)
	out.e2e["latency_p50_us"] = median(us)
	out.e2e["ops_per_s"] = windowedRate(durs)

	if layers != nil {
		out.layers["tunespace.predefined_us"] = median(micros(layers.predefined))
		out.layers["feature.encode_us"] = median(micros(layers.encode))
		var encTotal time.Duration
		for _, d := range layers.encode {
			encTotal += d
		}
		out.layers["feature.encode_ns_per_candidate"] = float64(encTotal.Nanoseconds()) / float64(layers.candidates)
		out.layers["svmrank.score_us"] = median(micros(layers.score))
		out.layers["core.best_us"] = median(micros(layers.best))
		out.layers["core.hybrid_us"] = median(micros(layers.hybrd))
		out.layers["server.stage_inference_us"] = median(micros(inferences))
		out.layers["server.miss_overhead_us"] = median(overheads)
		out.layers["server.inference_residual_us"] = median(inferGaps)
		out.layers["server.latency_p99_us"] = percentile(us, 99)
		round, err := gen.next()
		if err != nil {
			return nil, err
		}
		out.layers["server.allocs_per_request"], out.layers["server.bytes_per_request"] = coldAllocs(env, round)
		if err := trainLayers(out, env.artDir); err != nil {
			return nil, err
		}
	}

	chk, err := newChecker(env.artDir)
	if err != nil {
		return nil, err
	}
	for _, d := range answers {
		out.fail(chk.tune(d.c.q, d.body))
	}
	return out, nil
}

// coldAllocs counts heap allocations per cache miss over one fresh round.
func coldAllocs(env *serveEnv, round []coldRequest) (allocs, bytesPer float64) {
	reqs := make([]*http.Request, len(round))
	recs := make([]*httptest.ResponseRecorder, len(round))
	for i, c := range round {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/tune", bytes.NewReader(c.body))
		recs[i] = httptest.NewRecorder()
	}
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := range reqs {
		env.h.ServeHTTP(recs[i], reqs[i])
	}
	runtime.ReadMemStats(&b)
	n := float64(len(round))
	return float64(b.Mallocs-a.Mallocs) / n, float64(b.TotalAlloc-a.TotalAlloc) / n
}
