package core

// RemoveVideo deletes a video from the collection: its record and inverted
// postings go immediately; its LSB-tree entries are tombstoned and filtered
// out of walks until the next BuildSocial (which rebuilds the tree without
// them). The video's dense index survives removal — re-ingesting the id
// reclaims the same slot. It reports whether the id existed.
func (r *Recommender) RemoveVideo(id string) bool {
	i, ok := r.state.index(id)
	if !ok || r.state.recs.At(i) == nil {
		return false
	}
	r.beforeWrite()
	s := r.state
	rec := s.recs.At(i)
	s.setRecord(i, nil)
	r.dropHolder(i, rec.Desc.Users())
	s.live--
	if s.inv != nil && rec.Vec != nil {
		s.inv.Remove(i, rec.Vec)
	}
	s.tombstones.Grow(s.ids.Len())
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
	for _, i := range s.ordered() {
		fresh.AddKeys(i, s.recs.At(i).Keys)
	}
	s.lsb = fresh
	s.tombstones = nil
	s.tombCount = 0
}
