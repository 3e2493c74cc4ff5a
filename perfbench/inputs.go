package main

import (
	"fmt"
	"math/rand"

	"gef/internal/core"
	"gef/internal/dataset"
	"gef/internal/forest"
	"gef/internal/gbdt"
)

// sizes scales every generated input. fullSizes is what the benchmark
// measures; tests use tinySizes so a smoke of each workload takes
// seconds.
type sizes struct {
	Rows, Trees, Leaves int
	// NumSamples (|D*|) per workload.
	WarmSamples, ColdSamples, AutoSamples int
	// MinOps is the fewest successful ops an untraced phase must time for
	// its result to count: at 110, p90 has ten samples beyond it.
	MinOps int
}

var fullSizes = sizes{Rows: 5000, Trees: 150, Leaves: 31, WarmSamples: 2000, ColdSamples: 5000, AutoSamples: 6000, MinOps: 110}

var tinySizes = sizes{Rows: 400, Trees: 12, Leaves: 8, WarmSamples: 300, ColdSamples: 300, AutoSamples: 400, MinOps: 10}

// model is one workload forest. The system under test only ever receives
// blob; the decoded copy f is the benchmark's own, used to compute
// expected raw scores and to run the kernel microbenchmarks.
type model struct {
	name string
	data *dataset.Dataset
	blob []byte
	f    *forest.Forest
}

// families are the explainer families the serve workloads request.
var families = []string{core.FamilyGAM, core.FamilyRules, core.FamilySmoother}

// forestSeed fixes the training data, the forests and the serve
// workloads' D* seeds. The workload seed orders the ops and picks the
// shap rows and the autoexplain D* seeds. Different forests differ in
// cost (the census logit refit alone swings by a quarter across
// training seeds), which would bury a change under input noise.
const forestSeed = 1

// makeModels trains the workload forests from forestSeed: "sc", a
// regression GBDT on the simulated Superconductivity data, and (when
// withCensus) "census", a binary-logistic GBDT on the simulated Census
// data.
func makeModels(sz sizes, withCensus bool) ([]*model, error) {
	const seed = forestSeed
	specs := []struct {
		name string
		data *dataset.Dataset
		obj  forest.Objective
	}{{"sc", dataset.SuperconductivityN(sz.Rows, seed), forest.Regression}}
	if withCensus {
		specs = append(specs, struct {
			name string
			data *dataset.Dataset
			obj  forest.Objective
		}{"census", dataset.CensusN(sz.Rows, seed), forest.BinaryLogistic})
	}
	var out []*model
	for _, s := range specs {
		f, err := gbdt.Train(s.data, gbdt.Params{
			NumTrees: sz.Trees, NumLeaves: sz.Leaves, Objective: s.obj, Seed: seed,
		})
		if err != nil {
			return nil, fmt.Errorf("training the %s forest: %w", s.name, err)
		}
		blob, err := forest.Marshal(f)
		if err != nil {
			return nil, fmt.Errorf("serializing the %s forest: %w", s.name, err)
		}
		own, err := forest.Unmarshal(blob)
		if err != nil {
			return nil, fmt.Errorf("decoding the %s forest: %w", s.name, err)
		}
		out = append(out, &model{name: s.name, data: s.data, blob: blob, f: own})
	}
	return out, nil
}

// op is one request of a workload's sequence. The sequence is a pure
// function of the workload seed (see plan).
type op struct {
	Kind          string `json:"kind"` // "explain", "shap" or "auto"
	Model         int    `json:"model"`
	Family        string `json:"family,omitempty"`
	NumUnivariate int    `json:"k,omitempty"`
	NumSamples    int    `json:"n,omitempty"`
	Seed          int64  `json:"seed,omitempty"`
	Row           int    `json:"row,omitempty"`
	// Hot is the serve-warm hot-set index (-1 elsewhere).
	Hot int `json:"hot"`
}

// config is the pipeline configuration an explain or auto op requests.
func (o op) config() core.Config {
	return core.Config{
		Family:          o.Family,
		NumUnivariate:   o.NumUnivariate,
		NumInteractions: 1,
		NumSamples:      o.NumSamples,
		Seed:            o.Seed,
	}
}

// hotSet is serve-warm's 12 explain configs: 2 forests × {gam, rules,
// smoother} × |F′| ∈ {4, 5}. Their D* seed is fixed like the forests, so
// the warm refits cost the same under every workload seed.
func hotSet(sz sizes) []op {
	var hot []op
	for m := 0; m < 2; m++ {
		for _, fam := range families {
			for _, k := range []int{4, 5} {
				hot = append(hot, op{Kind: "explain", Model: m, Family: fam, NumUnivariate: k,
					NumSamples: sz.WarmSamples, Seed: forestSeed, Hot: len(hot)})
			}
		}
	}
	return hot
}

// plan returns the first n ops of a workload's request sequence. Each
// workload draws its ops in shuffled blocks that hold every op class in
// its exact share, so a run's class mix does not drift with the seed or
// with where the run stops.
func plan(workload string, seed int64, sz sizes, n int) []op {
	rng := rand.New(rand.NewSource(seed))
	var out []op
	switch workload {
	case "serve-warm":
		// 15-op blocks: each hot config once (12 explains, 80%) and 3 shap
		// requests (20%), alternating forests across blocks.
		hot := hotSet(sz)
		for shaps := 0; len(out) < n; {
			block := append([]op(nil), hot...)
			for i := 0; i < 3; i++ {
				block = append(block, op{Kind: "shap", Model: shaps % 2, Row: rng.Intn(sz.Rows), Hot: -1})
				shaps++
			}
			rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
			out = append(out, block...)
		}
	case "serve-cold":
		// 12-op blocks over 2 forests × 3 families × |F′| ∈ {4, 5}; every
		// op carries a fresh Config.Seed, so no D* is ever reused. Block b
		// holds the same 12 (config, D* seed) pairs under every workload
		// seed, which only orders them: a D* sample moves its fit's cost
		// (the logit refit's P-IRLS iterations), and a run covers too few
		// blocks to average that out.
		for b := 0; len(out) < n; b++ {
			var block []op
			for m := 0; m < 2; m++ {
				for _, fam := range families {
					for _, k := range []int{4, 5} {
						block = append(block, op{Kind: "explain", Model: m, Family: fam, NumUnivariate: k,
							NumSamples: sz.ColdSamples, Seed: int64(1000*(b+1) + len(block)), Hot: -1})
					}
				}
			}
			rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
			out = append(out, block...)
		}
	case "autoexplain":
		for len(out) < n {
			out = append(out, op{Kind: "auto", Model: 0, Family: core.FamilyGAM,
				NumSamples: sz.AutoSamples, Seed: rng.Int63n(1 << 40), Hot: -1})
		}
	}
	return out[:n]
}
