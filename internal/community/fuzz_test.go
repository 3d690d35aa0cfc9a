package community

import (
	"fmt"
	"math/rand"
	"testing"
)

// FuzzGraphDelta applies seeded batches of AddEdgeWeight deltas — zero,
// integral, fractional and negative, over a name pool with empty names and
// self-loops — to the CSR graph and to the shadowGraph model. The graph
// compacts never (the trigger off), after every batch, or after the batches
// compactAt's bits pick (the default trigger on). After every batch Weight
// in both directions, NumUsers, NumEdges and Edges must match the model, and
// CSR → GraphFromCSR must give back an Equal graph.
func FuzzGraphDelta(f *testing.F) {
	for seed := int64(1); seed <= 3; seed++ {
		for mode := uint8(0); mode < 3; mode++ {
			f.Add(seed, mode, uint64(0x9249249249249249))
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, mode uint8, compactAt uint64) {
		mode %= 3
		if mode == 0 {
			withCompactTrigger(t, neverCompact)
		}
		rng := rand.New(rand.NewSource(seed))
		names := make([]string, 2+rng.Intn(40))
		for i := range names {
			names[i] = fmt.Sprintf("u%d", rng.Intn(1000))
		}
		pick := func() string {
			if rng.Intn(30) == 0 {
				return ""
			}
			return names[rng.Intn(len(names))]
		}
		g, model := NewGraph(), newShadow()
		for batch := range 1 + rng.Intn(24) {
			for range rng.Intn(96) {
				u, v := pick(), pick()
				var delta float64
				switch rng.Intn(5) {
				case 0:
				case 1:
					delta = rng.Float64()
				case 2:
					delta = -float64(1 + rng.Intn(3))
				default:
					delta = float64(1 + rng.Intn(5))
				}
				g.AddEdgeWeight(u, v, delta)
				model.add(u, v, delta)
			}
			if mode == 1 || mode == 2 && compactAt>>(batch%64)&1 == 1 {
				g.Compact()
			}
			requireGraphMatchesModel(t, fmt.Sprintf("mode %d, batch %d", mode, batch), g, model, names)
		}
	})
}

// requireGraphMatchesModel checks g against the model: every pair's weight
// in both directions (0 for a pair the model lacks), the user and edge
// counts, the edge list, and the CSR round trip.
func requireGraphMatchesModel(t *testing.T, label string, g *Graph, model *shadowGraph, names []string) {
	t.Helper()
	for _, u := range names {
		for _, v := range names {
			k := [2]string{min(u, v), max(u, v)}
			if got, want := g.Weight(u, v), model.w[k]; got != want {
				t.Fatalf("%s: Weight(%s, %s) = %v, want %v", label, u, v, got, want)
			}
		}
	}
	if g.NumUsers() != len(model.users) || g.NumEdges() != len(model.w) {
		t.Fatalf("%s: %d users and %d edges, want %d and %d", label, g.NumUsers(), g.NumEdges(), len(model.users), len(model.w))
	}
	requireSameEdges(t, model.edges(), g.Edges(), label)
	keys, w := g.CSR()
	h, err := GraphFromCSR(g.Users(), keys, w)
	if err != nil {
		t.Fatalf("%s: GraphFromCSR: %v", label, err)
	}
	if !g.Equal(h) || !h.Equal(g) {
		t.Fatalf("%s: the CSR round trip is not Equal to the graph", label)
	}
}
