package spp

// This file holds pure structural transformations on SPP instances. They
// are the vocabulary of the scenario engine: generators splice renamed
// gadget cores into larger graphs, and the counterexample shrinker
// delta-debugs a misbehaving instance down to a minimal reproducer by
// removing nodes, removing sessions, and truncating rankings. Every
// transformation returns a fresh instance and leaves the receiver intact,
// so a shrink candidate that fails its re-verification can simply be
// dropped.

// Clone returns a deep copy of the instance.
func (in *Instance) Clone() *Instance {
	out := &Instance{
		Name:      in.Name,
		Nodes:     append([]Node(nil), in.Nodes...),
		Origins:   append([]Node(nil), in.Origins...),
		Links:     append([]Link(nil), in.Links...),
		Cost:      make(map[Link]int, len(in.Cost)),
		Permitted: make(map[Node][]Path, len(in.Permitted)),
	}
	for l, c := range in.Cost {
		out.Cost[l] = c
	}
	for n, paths := range in.Permitted {
		out.Permitted[n] = clonePaths(paths)
	}
	return out
}

// Rename returns a copy of the instance with every node and origin token
// mapped through f (applied to node lists, links, costs, and every path
// element). Generators use it to instantiate a gadget core under fresh
// names before splicing it into a larger graph.
func (in *Instance) Rename(name string, f func(Node) Node) *Instance {
	out := NewInstance(name)
	for _, n := range in.Nodes {
		out.Nodes = append(out.Nodes, f(n))
	}
	for _, o := range in.Origins {
		out.Origins = append(out.Origins, f(o))
	}
	for _, l := range in.Links {
		out.Links = append(out.Links, Link{From: f(l.From), To: f(l.To)})
	}
	for l, c := range in.Cost {
		out.Cost[Link{From: f(l.From), To: f(l.To)}] = c
	}
	for n, paths := range in.Permitted {
		cp := make([]Path, len(paths))
		for i, p := range paths {
			q := make(Path, len(p))
			for j, e := range p {
				q[j] = f(e)
			}
			cp[i] = q
		}
		out.Permitted[f(n)] = cp
	}
	return out
}

// pathUses reports whether p mentions n anywhere (as owner, hop, or origin).
func pathUses(p Path, n Node) bool {
	for _, e := range p {
		if e == n {
			return true
		}
	}
	return false
}

// RemoveNode returns a copy without node n: its ranking, every session
// touching it, and every permitted path crossing it are dropped.
func (in *Instance) RemoveNode(n Node) *Instance {
	out := in.Clone()
	nodes := out.Nodes[:0]
	for _, e := range out.Nodes {
		if e != n {
			nodes = append(nodes, e)
		}
	}
	out.Nodes = nodes
	links := out.Links[:0]
	for _, l := range out.Links {
		if l.From == n || l.To == n {
			delete(out.Cost, l)
			continue
		}
		links = append(links, l)
	}
	out.Links = links
	delete(out.Permitted, n)
	for owner, paths := range out.Permitted {
		kept := paths[:0]
		for _, p := range paths {
			if !pathUses(p, n) {
				kept = append(kept, p)
			}
		}
		out.Permitted[owner] = kept
	}
	return out
}

// RemoveSession returns a copy without the session between a and b (both
// directed links) and without any permitted path traversing it.
func (in *Instance) RemoveSession(a, b Node) *Instance {
	out := in.Clone()
	links := out.Links[:0]
	for _, l := range out.Links {
		if (l.From == a && l.To == b) || (l.From == b && l.To == a) {
			delete(out.Cost, l)
			continue
		}
		links = append(links, l)
	}
	out.Links = links
	uses := func(p Path) bool {
		for i := 0; i+1 < len(p); i++ {
			if (p[i] == a && p[i+1] == b) || (p[i] == b && p[i+1] == a) {
				return true
			}
		}
		return false
	}
	for owner, paths := range out.Permitted {
		kept := paths[:0]
		for _, p := range paths {
			if !uses(p) {
				kept = append(kept, p)
			}
		}
		out.Permitted[owner] = kept
	}
	return out
}

// DropPath returns a copy with the idx-th permitted path of node n removed
// (rank simplification); out-of-range indices return a plain clone.
func (in *Instance) DropPath(n Node, idx int) *Instance {
	out := in.Clone()
	paths := out.Permitted[n]
	if idx < 0 || idx >= len(paths) {
		return out
	}
	out.Permitted[n] = append(paths[:idx:idx], paths[idx+1:]...)
	return out
}

// PruneOrigins returns a copy whose origin list keeps only tokens still
// referenced by some permitted path, keeping shrunken corpus entries free
// of dangling tokens.
func (in *Instance) PruneOrigins() *Instance {
	out := in.Clone()
	used := map[Node]bool{}
	for _, paths := range out.Permitted {
		for _, p := range paths {
			if len(p) >= 2 {
				used[p[len(p)-1]] = true
			}
		}
	}
	origins := out.Origins[:0]
	for _, o := range out.Origins {
		if used[o] {
			origins = append(origins, o)
		}
	}
	out.Origins = origins
	return out
}
