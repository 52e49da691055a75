package cfg

// Durability support: the resolver's contents — concrete configurations,
// templates, tombstones, per-key successors — are the meta state a durable
// host snapshots and restores. Export/Import move that state in bulk; the
// host's meta hooks (core's hostMeta, a keystate.DurableMeta) encode it as
// the meta snapshot blob, with gob, and replay the meta log's install and
// retire records through Add and Retire. Per-(key, config) service state
// is not here: each keyed service keeps it in a keystate.Family.

// ResolverState is the serializable snapshot of a Resolver. Tombstones are
// exported as the same compact 64-bit hashes they are stored as — the
// original (key, id) strings were deliberately dropped at retire time and do
// not resurrect across a restart.
type ResolverState struct {
	Exact     []Configuration
	Templates []Configuration
	Retired   []uint64
	Successor map[string]ID
}

// Export captures the resolver's full state.
func (r *Resolver) Export() ResolverState {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := ResolverState{
		Exact:     make([]Configuration, 0, len(r.exact)),
		Templates: append([]Configuration(nil), r.templates...),
		Retired:   make([]uint64, 0, len(r.retired)),
		Successor: make(map[string]ID, len(r.successor)),
	}
	for _, c := range r.exact {
		s.Exact = append(s.Exact, c)
	}
	for h := range r.retired {
		s.Retired = append(s.Retired, h)
	}
	for k, v := range r.successor {
		s.Successor[k] = v
	}
	return s
}

// Import merges a previously exported state into the resolver: unions for
// configurations/templates/tombstones (existing entries win, matching Add's
// first-wins contract), successor entries only fill keys with no current
// record — recovery restores the snapshot into a near-empty resolver, and a
// live entry is never older than a snapshotted one.
func (r *Resolver) Import(s ResolverState) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range s.Exact {
		if _, ok := r.exact[c.ID]; !ok {
			r.exact[c.ID] = c
		}
	}
	for _, t := range s.Templates {
		dup := false
		for _, have := range r.templates {
			if have.ID == t.ID {
				dup = true
				break
			}
		}
		if !dup {
			r.templates = append(r.templates, t)
		}
	}
	for _, h := range s.Retired {
		r.retired[h] = struct{}{}
	}
	for k, v := range s.Successor {
		if _, ok := r.successor[k]; !ok {
			r.successor[k] = v
		}
	}
}
