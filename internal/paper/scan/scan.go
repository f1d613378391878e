// Package scan implements the paper's scan machine: "a scan machine that
// continuously scans the dataset evaluating user-supplied predicates on
// each object [Acharya95]."
//
// Every node of the cluster sweeps its partition of the containers in an
// endless loop. Queries join the mix immediately on arrival, observe each
// container exactly once per node (one full rotation), and complete within
// the scan time. The crucial economy is that one I/O pass serves every
// concurrent query: a container is read once per sweep regardless of how
// many queries inspect it.
//
// On node failure, containers move to their replicas (cluster.Fabric) and
// affected in-flight queries re-observe the moved containers — delivery is
// at-least-once across failovers, exactly-once otherwise; clients that need
// set semantics dedup by ObjID.
package scan

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sdss/internal/htm"
	"sdss/internal/paper/cluster"
	"sdss/internal/store"
)

// ContainerStore is the store surface the machine sweeps: any container-
// clustered source of records. Both store.Store and store.Sharded satisfy
// it, so a machine can sweep a single slice or a whole sharded archive.
type ContainerStore interface {
	Containers() []htm.ID
	Container(id htm.ID) *store.Container
	ForEachInContainer(id htm.ID, fn func(rec []byte) error) error
}

// Machine is the scan machine over one store and fabric.
type Machine struct {
	st     ContainerStore
	fabric *cluster.Fabric

	mu      sync.Mutex
	nextQID int
	active  map[int]*Ticket // live queries
	sweeps  atomic.Int64    // completed node-sweeps (diagnostics)
}

// Ticket tracks one submitted query.
type Ticket struct {
	ID int
	// fn is invoked for every record once per (container, owning node).
	fn func(rec []byte)

	mu sync.Mutex
	// remaining maps each node to the exact containers the query has yet
	// to observe there. Sets (rather than counts) keep completion honest
	// across failovers: a re-visit of an already-seen container never
	// counts as progress toward an unseen one.
	remaining map[int]map[htm.ID]struct{}
	done      chan struct{}
}

// Done returns a channel closed when the query has seen the whole dataset.
func (t *Ticket) Done() <-chan struct{} { return t.done }

// Wait blocks until completion or context cancellation.
func (t *Ticket) Wait(ctx context.Context) error {
	select {
	case <-t.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// New builds a scan machine: the store's containers are partitioned across
// the fabric's nodes (with replication, so the machine survives single-node
// failures).
func New(st ContainerStore, fabric *cluster.Fabric) *Machine {
	fabric.Partition(st.Containers(), true)
	return &Machine{
		st:     st,
		fabric: fabric,
		active: make(map[int]*Ticket),
	}
}

// Start launches one sweeper goroutine per live node. It returns
// immediately; sweepers run until the context is cancelled.
func (m *Machine) Start(ctx context.Context) {
	for _, id := range m.fabric.AliveNodes() {
		go m.sweep(ctx, id)
	}
}

// Submit registers a query with the running machine. fn is called for
// every record of the dataset (filtering is the query's business — the
// machine is a pure data pump). The query completes after one full
// rotation on every node.
func (m *Machine) Submit(fn func(rec []byte)) *Ticket {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := &Ticket{
		ID:        m.nextQID,
		fn:        fn,
		remaining: make(map[int]map[htm.ID]struct{}),
		done:      make(chan struct{}),
	}
	m.nextQID++
	total := 0
	for _, node := range m.fabric.AliveNodes() {
		assigned := m.fabric.Assigned(node)
		if len(assigned) == 0 {
			continue
		}
		set := make(map[htm.ID]struct{}, len(assigned))
		for _, c := range assigned {
			set[c] = struct{}{}
		}
		t.remaining[node] = set
		total += len(assigned)
	}
	if total == 0 {
		close(t.done)
		return t
	}
	m.active[t.ID] = t
	return t
}

// FailNode kills a node. Containers with replicas move to their backup
// node; in-flight queries must re-observe the moved containers there (the
// at-least-once failover path). Containers without live replicas are lost
// and are deducted so queries still terminate.
func (m *Machine) FailNode(ctx context.Context, node int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	deadList := m.fabric.Assigned(node)
	lost := m.fabric.Fail(node)
	lostSet := make(map[htm.ID]struct{}, len(lost))
	for _, c := range lost {
		lostSet[c] = struct{}{}
	}
	for _, t := range m.active {
		t.mu.Lock()
		if pending, wasActive := t.remaining[node]; wasActive {
			delete(t.remaining, node)
			// Re-observe the dead node's whole partition on the replicas
			// (conservative: includes containers already seen there, so
			// delivery is at-least-once across the failover). Lost
			// containers are simply dropped so the query terminates.
			_ = pending
			for _, c := range deadList {
				if _, isLost := lostSet[c]; isLost {
					continue
				}
				target := m.fabric.Owner(c)
				if target < 0 {
					continue
				}
				set := t.remaining[target]
				if set == nil {
					set = make(map[htm.ID]struct{})
					t.remaining[target] = set
				}
				set[c] = struct{}{}
			}
		}
		finished := len(t.remaining) == 0
		t.mu.Unlock()
		if finished {
			m.finish(t)
		}
	}
	_ = ctx
}

// finish removes a completed ticket. Caller holds m.mu.
func (m *Machine) finish(t *Ticket) {
	select {
	case <-t.done:
	default:
		close(t.done)
	}
	delete(m.active, t.ID)
}

// sweep is one node's endless rotation over its containers.
func (m *Machine) sweep(ctx context.Context, node int) {
	nd := m.fabric.Node(node)
	for {
		if ctx.Err() != nil || !nd.Alive() {
			return
		}
		containers := m.fabric.Assigned(node)
		if len(containers) == 0 {
			// Idle node: wait for reassignment or shutdown.
			select {
			case <-ctx.Done():
				return
			case <-time.After(time.Millisecond):
			}
			continue
		}
		for _, cid := range containers {
			if ctx.Err() != nil || !nd.Alive() {
				return
			}
			m.visit(node, nd, cid)
		}
		m.sweeps.Add(1)
	}
}

// visit reads one container once and shows it to every query active on this
// node.
func (m *Machine) visit(node int, nd *cluster.Node, cid htm.ID) {
	c := m.st.Container(cid)
	if c == nil {
		return
	}
	// One physical read serves all queries in the mix.
	nd.Read(c.Bytes())

	m.mu.Lock()
	queries := make([]*Ticket, 0, len(m.active))
	for _, t := range m.active {
		t.mu.Lock()
		if set, ok := t.remaining[node]; ok {
			if _, pending := set[cid]; pending {
				queries = append(queries, t)
			}
		}
		t.mu.Unlock()
	}
	m.mu.Unlock()
	if len(queries) > 0 {
		if err := m.st.ForEachInContainer(cid, func(rec []byte) error {
			for _, t := range queries {
				t.fn(rec)
			}
			return nil
		}); err != nil {
			// Store iteration cannot fail unless a callback does, and
			// scan callbacks do not return errors.
			panic(fmt.Sprintf("scan: container %v: %v", cid, err))
		}
	}

	// Progress accounting: this container is now seen on this node.
	m.mu.Lock()
	for _, t := range queries {
		t.mu.Lock()
		if set, ok := t.remaining[node]; ok {
			delete(set, cid)
			if len(set) == 0 {
				delete(t.remaining, node)
			}
		}
		finished := len(t.remaining) == 0
		t.mu.Unlock()
		if finished {
			m.finish(t)
		}
	}
	m.mu.Unlock()
}

// Sweeps returns the number of completed full node-sweeps (diagnostics).
func (m *Machine) Sweeps() int64 { return m.sweeps.Load() }

// ActiveQueries returns the number of queries currently in the mix.
func (m *Machine) ActiveQueries() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.active)
}
