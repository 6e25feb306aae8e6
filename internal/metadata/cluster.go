package metadata

import (
	"sync"
)

// replEvent is one version awaiting delivery to a peer datacenter.
type replEvent struct {
	row string
	v   Version
}

// Cluster wires several datacenter Stores into a multi-master replicated
// database: every write is queued for asynchronous delivery to all other
// datacenters, network partitions buffer the queues, and anti-entropy
// synchronization reconciles full version sets after recovery. Reads are
// served by the local node (eventual consistency), matching the paper's
// Cassandra deployment.
type Cluster struct {
	// flushMu serializes whole flushes, delivery included: a Flush
	// returns only after every event queued before it was merged, even
	// when a concurrent Flush had already dequeued them.
	flushMu sync.Mutex
	mu      sync.Mutex
	stores  []*Store
	queues  map[string]map[string][]replEvent // src -> dst -> pending
	links   map[string]map[string]bool        // src -> dst -> up
}

// NewCluster builds a cluster over the given datacenter nodes; all
// inter-DC links start connected.
func NewCluster(stores ...*Store) *Cluster {
	c := &Cluster{
		stores: stores,
		queues: make(map[string]map[string][]replEvent),
		links:  make(map[string]map[string]bool),
	}
	for _, src := range stores {
		c.queues[src.Node()] = make(map[string][]replEvent)
		c.links[src.Node()] = make(map[string]bool)
		for _, dst := range stores {
			if src != dst {
				c.links[src.Node()][dst.Node()] = true
			}
		}
	}
	return c
}

// Stores returns the member nodes.
func (c *Cluster) Stores() []*Store { return c.stores }

// Store returns the node with the given name, or nil.
func (c *Cluster) Store(node string) *Store {
	for _, s := range c.stores {
		if s.Node() == node {
			return s
		}
	}
	return nil
}

// Put writes through the named node and enqueues replication to peers.
func (c *Cluster) Put(node, row string, v Version) error {
	src := c.Store(node)
	if src == nil {
		return ErrNodeDown
	}
	if err := src.Put(row, v); err != nil {
		return err
	}
	// Replicate the post-write head set (the version as causally stamped
	// by the source node).
	heads, err := src.Heads(row)
	if err != nil && err != ErrRowNotFound {
		return err
	}
	c.mu.Lock()
	for _, dst := range c.stores {
		if dst == src {
			continue
		}
		for _, h := range heads {
			c.queues[src.Node()][dst.Node()] = append(c.queues[src.Node()][dst.Node()],
				replEvent{row: row, v: h})
		}
		if len(heads) == 0 { // tombstone write
			if hs := src.dump()[row]; hs != nil {
				for _, h := range hs {
					c.queues[src.Node()][dst.Node()] = append(c.queues[src.Node()][dst.Node()],
						replEvent{row: row, v: h})
				}
			}
		}
	}
	c.mu.Unlock()
	return nil
}

// Partition severs the links between two nodes in both directions;
// writes keep queueing locally.
func (c *Cluster) Partition(a, b string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.links[a][b] = false
	c.links[b][a] = false
}

// Heal restores the links between two nodes.
func (c *Cluster) Heal(a, b string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.links[a][b] = true
	c.links[b][a] = true
}

// Flush delivers every queued replication event whose link is up.
// Returns the number of delivered events. Once it returns, every event
// queued before the call has been merged at its (reachable) peer.
func (c *Cluster) Flush() int {
	c.flushMu.Lock()
	defer c.flushMu.Unlock()
	c.mu.Lock()
	type delivery struct {
		src, dst string
		ev       replEvent
	}
	var deliveries []delivery
	for srcName, byDst := range c.queues {
		for dstName, events := range byDst {
			if !c.links[srcName][dstName] {
				continue
			}
			dst := c.Store(dstName)
			if dst == nil || !dst.Available() {
				continue
			}
			for _, ev := range events {
				deliveries = append(deliveries, delivery{src: srcName, dst: dstName, ev: ev})
			}
			c.queues[srcName][dstName] = nil
		}
	}
	c.mu.Unlock()

	delivered := 0
	for _, d := range deliveries {
		// A node that went down mid-flush keeps its events queued.
		if err := c.Store(d.dst).merge(d.ev.row, d.ev.v); err != nil {
			c.mu.Lock()
			c.queues[d.src][d.dst] = append(c.queues[d.src][d.dst], d.ev)
			c.mu.Unlock()
			continue
		}
		delivered++
	}
	return delivered
}

// AntiEntropy performs a full pairwise reconciliation: every node's
// version sets are exchanged and merged, converging all reachable nodes
// to identical row states (Cassandra's repair path; run after partitions
// heal).
func (c *Cluster) AntiEntropy() {
	for _, src := range c.stores {
		if !src.Available() {
			continue
		}
		snapshot := src.dump()
		for _, dst := range c.stores {
			if dst == src || !dst.Available() {
				continue
			}
			c.mu.Lock()
			linked := c.links[src.Node()][dst.Node()]
			c.mu.Unlock()
			if !linked {
				continue
			}
			for row, versions := range snapshot {
				for _, v := range versions {
					dst.merge(row, v) //nolint:errcheck // down nodes re-sync later
				}
			}
		}
	}
}

// PendingReplication counts undelivered replication events.
func (c *Cluster) PendingReplication() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, byDst := range c.queues {
		for _, events := range byDst {
			n += len(events)
		}
	}
	return n
}
