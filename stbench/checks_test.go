package main

// Each output check must reject a deliberately wrong answer.

import (
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/exec"
	"repro/internal/feature"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/perfmodel"
	"repro/internal/stencil"
	"repro/internal/tunespace"
	"repro/internal/wal"
)

func TestArgmaxAndRankOrder(t *testing.T) {
	scores := []float64{1, 3, 2}
	if checkArgmax(scores, 1) != nil || checkArgmax(scores, 0) == nil || checkArgmax(scores, 3) == nil {
		t.Error("checkArgmax must accept only the maximum")
	}
	if checkRankOrder(scores, []int{1, 2, 0}) != nil {
		t.Error("checkRankOrder rejected a correct order")
	}
	for _, bad := range [][]int{{2, 1, 0}, {1, 1, 0}, {1, 2}} {
		if checkRankOrder(scores, bad) == nil {
			t.Errorf("checkRankOrder accepted %v", bad)
		}
	}
}

func TestEqualValuesIsBitExact(t *testing.T) {
	a := []float64{1.5, 2}
	if checkEqualValues(a, []float64{1.5, 2}) != nil {
		t.Error("equal values rejected")
	}
	if checkEqualValues(a, []float64{1.5, math.Nextafter(2, 3)}) == nil {
		t.Error("a one-ulp difference passed")
	}
}

func TestKendallTauB(t *testing.T) {
	for _, c := range []struct {
		x, y []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5}, []float64{1, 2, 3, 4, 5}, 1},
		{[]float64{1, 2, 3, 4, 5}, []float64{5, 4, 3, 2, 1}, -1},
		{[]float64{1, 2, 3, 4, 5}, []float64{2, 1, 4, 3, 5}, 0.6},
		{[]float64{1, 2, 2, 3}, []float64{1, 2, 3, 3}, 0.8}, // one tie in each
	} {
		if got := kendallTauB(c.x, c.y); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("tau-b(%v, %v) = %v, want %v", c.x, c.y, got, c.want)
		}
	}
}

func TestStencilChecksRejectWrongCells(t *testing.T) {
	r := exec.NewRunner()
	defer r.Close()
	k := exec.LaplacianExec()
	rng := rand.New(rand.NewSource(1))
	in, out := newGrid[float64](rng, k, 8, 6, 5)
	ins := []*grid.Grid[float64]{in}
	if err := r.Run(k, out, ins, tunespace.Vector{Bx: 4, By: 4, Bz: 2, U: 2, C: 1, K: 1}); err != nil {
		t.Fatal(err)
	}
	if err := checkStencil(k, ins, out); err != nil {
		t.Fatalf("a correct sweep failed the naive check: %v", err)
	}
	same := out.Clone()
	out.Set(3, 2, 1, out.At(3, 2, 1)+1e-9)
	if checkStencil(k, ins, out) == nil {
		t.Error("the naive check accepted a cell off by 1e-9")
	}
	if checkSameBits(out, same) == nil {
		t.Error("the bit-identity check accepted a changed cell")
	}
}

func TestWALRecordsMustMatchAccepted(t *testing.T) {
	k, _ := stencil.KernelByName("laplacian")
	q := stencil.Instance{Kernel: k, Size: stencil.Size3D(64, 64, 64)}
	v := tunespace.Vector{Bx: 8, By: 8, Bz: 8, U: 2, C: 1, K: 1}
	rec := func(rt float64) wal.Record {
		r := wal.NewRecord(q, v, rt)
		r.Source = "observe"
		return r
	}
	key := func(rt float64) uint64 { return observationKey("laplacian", [3]int{64, 64, 64}, walVector(v), rt) }
	offered := map[uint64]int{key(1e-3): 1, key(2e-3): 1}
	if err := checkWALRecords(offered, 2, []wal.Record{rec(2e-3), rec(1e-3)}); err != nil {
		t.Fatalf("the accepted records failed: %v", err)
	}
	for name, recs := range map[string][]wal.Record{
		"missing":    {rec(1e-3)},
		"never sent": {rec(1e-3), rec(3e-3)},
		"duplicated": {rec(1e-3), rec(1e-3)},
		"invalid":    {rec(1e-3), rec(-1)},
	} {
		if checkWALRecords(offered, 2, recs) == nil {
			t.Errorf("a %s record passed", name)
		}
	}
}

func TestCachedAnswerMustMatchFirst(t *testing.T) {
	first := []byte(`{"best":1}`)
	if checkCached(answer{code: http.StatusOK, cache: "hit", body: []byte(`{"best":1}`)}, first) != nil {
		t.Error("an identical hit failed")
	}
	if checkCached(answer{code: http.StatusOK, cache: "hit", body: []byte(`{"best":2}`)}, first) == nil {
		t.Error("a changed hit passed")
	}
	if checkCached(answer{code: http.StatusOK, cache: "miss", body: first}, first) == nil {
		t.Error("a miss passed as a hit")
	}
}

// TestServeChecksRejectWrongAnswers feeds the tune, rank, predict and
// hybrid checks answers that differ from the model or the simulator.
func TestServeChecksRejectWrongAnswers(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(2))
	w := make([]float64, feature.Dim)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	b, _ := json.Marshal(map[string]any{"feature_dim": feature.Dim, "w": w, "c": 3})
	if err := os.WriteFile(filepath.Join(dir, "model.json"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := newChecker(dir)
	if err != nil {
		t.Fatal(err)
	}
	k, _ := stencil.KernelByName("edge")
	q := stencil.Instance{Kernel: k, Size: stencil.Size2D(512, 512)}
	cands := tunespace.NewSpace(2).Predefined()
	scores := scoresOf(w, c.enc, q, cands)
	best, worst := 0, 0
	for i, s := range scores {
		if s > scores[best] {
			best = i
		}
		if s < scores[worst] {
			worst = i
		}
	}
	tune := func(i int) []byte {
		b, _ := json.Marshal(map[string]any{"best": wireVector(cands[i]), "ranked_candidates": len(cands)})
		return b
	}
	if err := c.tune(q, tune(best)); err != nil {
		t.Fatalf("the argmax failed: %v", err)
	}
	if c.tune(q, tune(worst)) == nil {
		t.Error("a tune answer that is not the argmax passed")
	}

	sub := cands[:8]
	order := []int{0, 1, 2, 3, 4, 5, 6, 7}
	sortByScore(order, scoresOf(w, c.enc, q, sub))
	rank := func(order []int) []byte {
		b, _ := json.Marshal(map[string]any{"candidates": len(sub), "order": order, "best": wireVector(sub[order[0]])})
		return b
	}
	if err := c.rank(q, sub, rank(order)); err != nil {
		t.Fatalf("a correct rank failed: %v", err)
	}
	order[0], order[7] = order[7], order[0]
	if c.rank(q, sub, rank(order)) == nil {
		t.Error("a rank order that increases in score passed")
	}

	sim := perfmodel.New(machine.XeonE52680v3())
	vals := []float64{sim.Runtime(q, sub[0]), sim.Runtime(q, sub[1])}
	predict := func(vals []float64) []byte {
		b, _ := json.Marshal(map[string]any{"unit": "seconds", "values": vals})
		return b
	}
	if err := c.predict(q, sub[:2], predict(vals)); err != nil {
		t.Fatalf("correct predictions failed: %v", err)
	}
	if c.predict(q, sub[:2], predict([]float64{vals[0], vals[1] * 1.01})) == nil {
		t.Error("a wrong simulated runtime passed")
	}

	top := make([]int, len(cands))
	for i := range top {
		top[i] = i
	}
	sortByScore(top, scores)
	pick := top[0]
	for _, i := range top[:hybridTopK] {
		if sim.Runtime(q, cands[i]) < sim.Runtime(q, cands[pick]) {
			pick = i
		}
	}
	if err := c.hybrid(q, cands, scores, cands[pick], sim.Runtime(q, cands[pick])); err != nil {
		t.Fatalf("the correct hybrid pick failed: %v", err)
	}
	if c.hybrid(q, cands, scores, cands[pick], 2*sim.Runtime(q, cands[pick])) == nil {
		t.Error("a hybrid pick with a wrong runtime passed")
	}
	if c.hybrid(q, cands, scores, cands[top[len(top)-1]], sim.Runtime(q, cands[top[len(top)-1]])) == nil {
		t.Error("a hybrid pick outside the top k passed")
	}
}

// sortByScore orders indices by descending score.
func sortByScore(idx []int, scores []float64) {
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
}
