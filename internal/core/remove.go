package core

// RemoveVideo deletes a video from the collection: its record and inverted
// postings go immediately; its LSB-tree entries are tombstoned and filtered
// out of walks until the next BuildSocial (which rebuilds the tree without
// them). The video's dense index survives removal — re-ingesting the id
// reclaims the same slot. It reports whether the id existed.
func (r *Recommender) RemoveVideo(id string) bool {
	i, ok := r.state.intern.idx[id]
	if !ok || r.state.recs[i] == nil {
		return false
	}
	r.beforeWrite()
	s := r.state
	rec := s.recs[i]
	s.recs[i] = nil
	for j, o := range s.order {
		if o == id {
			s.order = append(s.order[:j], s.order[j+1:]...)
			break
		}
	}
	if s.inv != nil && rec.Vec != nil {
		s.inv.Remove(i, rec.Vec)
	}
	s.tombstones.Grow(len(s.intern.ids))
	if !s.tombstones.Has(i) {
		s.tombstones.Add(i)
		s.tombCount++
	}
	return true
}

// Tombstones returns the number of removed videos whose index entries are
// pending compaction.
func (r *Recommender) Tombstones() int { return r.state.tombCount }

// compactLSB rebuilds the content index from live records, dropping
// tombstoned entries. Called from BuildSocial after the copy-on-write check,
// so it always operates on a privately owned state.
func (r *Recommender) compactLSB() {
	s := r.state
	if s.tombCount == 0 {
		return
	}
	fresh := newLSBFor(r.opts)
	for _, id := range s.order {
		i := s.intern.idx[id]
		fresh.Add(i, s.recs[i].Series)
	}
	s.lsb = fresh
	s.tombstones = nil
	s.tombCount = 0
}
