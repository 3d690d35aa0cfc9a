// Package social implements the social-relevance side of §4.2: per-video
// social descriptors (the owner plus every commenting user), the exact
// Jaccard relevance sJ (Equation 5), and the SAR approximation — descriptor
// vectorization over k sub-communities and the histogram min/max relevance
// s̃J (Equation 6).
package social

import (
	"fmt"
	"sort"
)

// Descriptor is the social descriptor D_V of a video: the set of ids of its
// owner and the users commenting on it. Users are stored sorted and
// deduplicated, so set operations are linear merges.
type Descriptor struct {
	users []string
}

// NewDescriptor builds a descriptor from the owner id and commenter ids.
// Empty ids are ignored; duplicates collapse.
func NewDescriptor(owner string, commenters ...string) Descriptor {
	all := make([]string, 0, len(commenters)+1)
	if owner != "" {
		all = append(all, owner)
	}
	for _, c := range commenters {
		if c != "" {
			all = append(all, c)
		}
	}
	return fromUnsorted(all)
}

// SortedDescriptor builds a descriptor from users already in its form:
// sorted, distinct and non-empty. It takes ownership of the slice and
// rejects one that is not in that form.
func SortedDescriptor(users []string) (Descriptor, error) {
	for i, u := range users {
		if u == "" || i > 0 && u <= users[i-1] {
			return Descriptor{}, fmt.Errorf("social: descriptor users are not sorted, distinct and non-empty at %d", i)
		}
	}
	return Descriptor{users: users}, nil
}

// fromUnsorted sorts and deduplicates in place, taking ownership of the
// slice. Callers must have already dropped empty ids.
func fromUnsorted(all []string) Descriptor {
	sort.Strings(all)
	out := all[:0]
	for i, u := range all {
		if i == 0 || u != all[i-1] {
			out = append(out, u)
		}
	}
	return Descriptor{users: out}
}

// Len returns the number of distinct users in the descriptor.
func (d Descriptor) Len() int { return len(d.users) }

// Users returns the sorted distinct user ids. The caller must not modify the
// returned slice.
func (d Descriptor) Users() []string { return d.users }

// Contains reports whether the user id is in the descriptor.
func (d Descriptor) Contains(user string) bool {
	i := sort.SearchStrings(d.users, user)
	return i < len(d.users) && d.users[i] == user
}

// Add returns a descriptor extended with the given users (the original is
// unchanged). It is used when new comments arrive on a video. Only the
// incoming users are sorted; the existing members — already sorted — join
// them through a linear merge, so growing a large descriptor by a few
// commenters costs O(new·log new + len) rather than re-sorting everything.
func (d Descriptor) Add(users ...string) Descriptor {
	add := make([]string, 0, len(users))
	for _, u := range users {
		if u != "" {
			add = append(add, u)
		}
	}
	sort.Strings(add)
	w := 0
	for i, u := range add {
		if i == 0 || u != add[i-1] {
			add[w] = u
			w++
		}
	}
	add = add[:w]

	merged := make([]string, 0, len(d.users)+len(add))
	i, j := 0, 0
	for i < len(d.users) && j < len(add) {
		switch {
		case d.users[i] == add[j]:
			merged = append(merged, d.users[i])
			i++
			j++
		case d.users[i] < add[j]:
			merged = append(merged, d.users[i])
			i++
		default:
			merged = append(merged, add[j])
			j++
		}
	}
	merged = append(merged, d.users[i:]...)
	merged = append(merged, add[j:]...)
	return Descriptor{users: merged}
}

// Jaccard is Equation 5: |D_V ∩ D_Q| / |D_V ∪ D_Q|, computed by a linear
// merge over the sorted user lists. Two empty descriptors have relevance 0.
func Jaccard(a, b Descriptor) float64 {
	if len(a.users) == 0 && len(b.users) == 0 {
		return 0
	}
	inter := 0
	i, j := 0, 0
	for i < len(a.users) && j < len(b.users) {
		switch {
		case a.users[i] == b.users[j]:
			inter++
			i++
			j++
		case a.users[i] < b.users[j]:
			i++
		default:
			j++
		}
	}
	union := len(a.users) + len(b.users) - inter
	return float64(inter) / float64(union)
}

// Vector is a SAR social-descriptor vector: Vector[c] counts the
// descriptor's users that belong to sub-community c.
type Vector []float64

// Lookup resolves a user id to its sub-community id; the boolean reports
// whether the user is known. In production this is the partition's hashed
// lookup (community.Partition.Lookup); tests may use a plain map.
type Lookup func(user string) (cno int, ok bool)

// Vectorize converts a descriptor into its k-dimensional sub-community
// histogram. Users the dictionary does not know (e.g. brand-new commenters
// that arrived after the last maintenance pass) are skipped — they belong to
// no extracted sub-community yet.
func Vectorize(d Descriptor, lookup Lookup, k int) Vector {
	return VectorizeInto(nil, d, lookup, k)
}

// VectorizeInto is Vectorize writing into dst's storage when it has the
// capacity, so a pooled per-query scratch vector is reused across queries
// instead of allocated per call. The returned vector must be used in place
// of dst (it may be a fresh allocation when dst was too small).
func VectorizeInto(dst Vector, d Descriptor, lookup Lookup, k int) Vector {
	if cap(dst) >= k {
		dst = dst[:k]
		clear(dst)
	} else {
		dst = make(Vector, k)
	}
	for _, u := range d.users {
		if cno, ok := lookup(u); ok && cno >= 0 && cno < k {
			dst[cno]++
		}
	}
	return dst
}

// ApproxJaccard is Equation 6: Σ min(d_Qi, d_Vi) / Σ max(d_Qi, d_Vi), the
// SAR approximation of sJ over two descriptor vectors. Vectors of different
// lengths are compared over the shorter prefix with the longer tail counted
// in the denominator, so a dimension mismatch degrades gracefully instead of
// panicking. Two zero vectors have relevance 0.
func ApproxJaccard(a, b Vector) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	var num, den float64
	for i := 0; i < n; i++ {
		if a[i] < b[i] {
			num += a[i]
			den += b[i]
		} else {
			num += b[i]
			den += a[i]
		}
	}
	for _, x := range a[n:] {
		den += x
	}
	for _, x := range b[n:] {
		den += x
	}
	if den == 0 {
		return 0
	}
	return num / den
}
