package cluster

import "rankjoin"

// LastJobResult waits for every join job this peer has started and
// returns the outcome of the one that finished last — for a test that
// issues joins one at a time, this peer's own copy of the latest join's
// Result (a follower acks, and so finishes, slightly after the
// coordinator's DistributedJoin returns).
func (c *Cluster) LastJobResult() (*rankjoin.Result, error) {
	t := &c.jobs
	t.mu.Lock()
	entries := make([]*jobEntry, 0, len(t.m))
	for _, e := range t.m {
		entries = append(entries, e)
	}
	t.mu.Unlock()
	for _, e := range entries {
		<-e.done
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.m[t.order[len(t.order)-1]]
	return e.res, e.err
}
