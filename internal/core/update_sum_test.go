package core

import (
	"math/rand"
	"testing"

	"videorec/internal/community"
)

func edgesEqual(a, b []community.Edge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Reversed pair orientation across shards must merge into one canonical
// edge: shard boundaries do not get to pick which endpoint comes first.
func TestSumConnectionsReversedOrientation(t *testing.T) {
	got := SumConnections(
		[]community.Edge{{U: "a", V: "b", W: 1}},
		[]community.Edge{{U: "b", V: "a", W: 2}},
	)
	want := []community.Edge{{U: "a", V: "b", W: 3}}
	if !edgesEqual(got, want) {
		t.Fatalf("SumConnections = %+v, want %+v", got, want)
	}
}

// SumConnections is a merge, not a validator: self-loops and empty names in
// the input pass through (canonically oriented), because filtering is
// derivation's job and a merge that silently drops input would let shards
// disagree about the batch they all must apply.
func TestSumConnectionsKeepsSelfLoopsAndEmptyNames(t *testing.T) {
	got := SumConnections(
		[]community.Edge{{U: "y", V: "y", W: 2}, {U: "x", V: "", W: 1}},
		[]community.Edge{{U: "", V: "x", W: 4}},
	)
	want := []community.Edge{
		{U: "", V: "x", W: 5},
		{U: "y", V: "y", W: 2},
	}
	if !edgesEqual(got, want) {
		t.Fatalf("SumConnections = %+v, want %+v", got, want)
	}
}

func TestSumConnectionsEmptyInput(t *testing.T) {
	if got := SumConnections(); len(got) != 0 {
		t.Fatalf("SumConnections() = %+v, want empty", got)
	}
	if got := SumConnections(nil, []community.Edge{}); len(got) != 0 {
		t.Fatalf("SumConnections(nil, empty) = %+v, want empty", got)
	}
}

// Property: however a derived edge list is sliced into parts — and whatever
// orientation each part stores — the merge reproduces the single-engine
// derivation exactly. This is the invariant sharded ApplyUpdates rests on:
// every shard applies SumConnections output, and it must equal what one
// engine holding the whole corpus would have derived.
func TestSumConnectionsMergeDeterminism(t *testing.T) {
	r, c := buildSmall(t, ModeSARHash)
	rng := rand.New(rand.NewSource(99))

	for trial := 0; trial < 20; trial++ {
		batch := map[string][]string{}
		for _, it := range c.Items {
			if rng.Intn(3) == 0 {
				users := make([]string, 1+rng.Intn(4))
				for i := range users {
					users[i] = c.Items[rng.Intn(len(c.Items))].Comments[0].User
				}
				batch[it.ID] = users
			}
		}
		full := r.DeriveConnections(batch)
		if len(full) == 0 {
			continue
		}
		// r derives into the count matrix its earlier trials used, at a
		// different stride each time; a copy without one starts from zeroes.
		clean := *r
		clean.pairCounts = nil
		if got := clean.DeriveConnections(batch); !edgesEqual(got, full) {
			t.Fatalf("trial %d: reused count matrix changed the derivation:\ngot  %+v\nwant %+v", trial, full, got)
		}

		// Slice the full list into 1–4 parts at random, flipping random
		// edges' orientation; derived weights are small integers, so
		// regrouping float additions is exact.
		nParts := 1 + rng.Intn(4)
		parts := make([][]community.Edge, nParts)
		for _, e := range full {
			p := rng.Intn(nParts)
			if rng.Intn(2) == 0 {
				e.U, e.V = e.V, e.U
			}
			parts[p] = append(parts[p], e)
		}
		if got := SumConnections(parts...); !edgesEqual(got, full) {
			t.Fatalf("trial %d: merged parts diverge from single derivation:\ngot  %+v\nwant %+v", trial, got, full)
		}

		// Part order must not matter either (weights are integral).
		reversed := make([][]community.Edge, nParts)
		for i := range parts {
			reversed[i] = parts[nParts-1-i]
		}
		if got := SumConnections(reversed...); !edgesEqual(got, full) {
			t.Fatalf("trial %d: merge depends on part order", trial)
		}
	}
}

// Splitting one part's edge for a pair across two parts must sum, matching
// the multi-shard case where both shards hold videos the pair co-commented.
func TestSumConnectionsAccumulatesAcrossParts(t *testing.T) {
	got := SumConnections(
		[]community.Edge{{U: "a", V: "b", W: 1.5}, {U: "a", V: "c", W: 1}},
		[]community.Edge{{U: "a", V: "b", W: 2.5}},
		[]community.Edge{{U: "a", V: "b", W: 1}},
	)
	want := []community.Edge{
		{U: "a", V: "b", W: 5},
		{U: "a", V: "c", W: 1},
	}
	if !edgesEqual(got, want) {
		t.Fatalf("SumConnections = %+v, want %+v", got, want)
	}
}
