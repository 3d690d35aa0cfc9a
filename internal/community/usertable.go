package community

import "sort"

// UserTable is the dense user-id intern table: every user name is assigned
// the next uint32 id, forever. It mirrors the video-id table of
// internal/core — ids are append-only and stable, so the graph adjacency,
// the partition assignment and every derived structure can be
// integer-addressed instead of string-keyed.
//
// The table is shared copy-on-write between the write-side Graph and the
// Partitions published inside read Views: publishing marks the table shared,
// and the first mutation that mints a new id copies the table before
// appending (see Graph.internUser), so readers keep resolving names against
// the table they froze while the writer grows a private successor.
//
// The empty string is never interned: it is the "no user" sentinel
// everywhere in this package, and both the graph and the batch paths filter
// it before reaching the table.
type UserTable struct {
	names  []string          // dense id → user name
	idx    map[string]uint32 // user name → dense id
	shared bool              // a published Partition references this table
}

// NewUserTable returns an empty table.
func NewUserTable() *UserTable {
	return &UserTable{idx: make(map[string]uint32)}
}

// Len returns the number of interned users.
func (t *UserTable) Len() int { return len(t.names) }

// Name returns the user name for a dense id.
func (t *UserTable) Name(i uint32) string { return t.names[i] }

// Lookup resolves a user name to its dense id.
func (t *UserTable) Lookup(name string) (uint32, bool) {
	i, ok := t.idx[name]
	return i, ok
}

// MarkShared flags the table as reachable from a published reader; the next
// Insert will copy it first.
func (t *UserTable) MarkShared() { t.shared = true }

// clone returns a privately owned copy with the same id assignments.
func (t *UserTable) clone() *UserTable {
	cp := &UserTable{
		names: append([]string(nil), t.names...),
		idx:   make(map[string]uint32, len(t.idx)),
	}
	for name, i := range t.idx {
		cp.idx[name] = i
	}
	return cp
}

// insert mints the next id for a new name. The caller has already checked
// absence and handled copy-on-write; this is the tail of Graph.internUser.
func (t *UserTable) insert(name string) uint32 {
	i := uint32(len(t.names))
	t.names = append(t.names, name)
	t.idx[name] = i
	return i
}

// DedupeUsers returns the sorted, deduplicated user list with empty ids
// dropped — the audience normalization shared by UIG construction and
// connection derivation. The input is not modified.
func DedupeUsers(in []string) []string {
	out := append([]string(nil), in...)
	sort.Strings(out)
	w := 0
	for _, s := range out {
		if s == "" {
			continue
		}
		if w > 0 && out[w-1] == s {
			continue
		}
		out[w] = s
		w++
	}
	return out[:w]
}
