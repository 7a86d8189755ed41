package tenant

import "slices"

// DRR is weighted deficit round robin over per-tenant FIFO queues, the
// one fair-queueing policy in front of both the worker pool (Scheduler)
// and the cluster coordinator's leases. It has no lock and never
// blocks: the owner serialises calls under its own mutex.
//
// A pointer visits tenants with backlog, grants each its weight once
// per visit, and serves items while the deficit covers their cost. A
// tenant's queue, deficit included, exists only while it holds items,
// so an idle tenant banks no credit. Fairness invariant (DESIGN.md
// §12): with unit costs a backlogged tenant i waits at most
// K = Σ_{j≠i} w_j + max_j w_j pops of other tenants — one visit of
// each, plus the rest of the burst the pointer was parked on.
type DRR[T comparable] struct {
	weight func(tenant string) int
	byID   map[string]*drrQueue[T]
	ring   []*drrQueue[T] // tenants with backlog, in round order
	cur    int            // ring index the pointer is parked on
	n      int            // items across all queues
}

type drrQueue[T comparable] struct {
	id      string
	weight  int
	items   []drrItem[T]
	deficit int
	// charged records that the quantum was granted for the current
	// visit, so a tenant the pointer parks on (serving a burst) is
	// charged once per visit, not once per pop.
	charged bool
}

type drrItem[T comparable] struct {
	v    T
	cost int
}

// NewDRR builds an empty DRR. weight gives a tenant's quantum when its
// queue is created (nil or < 1 means 1).
func NewDRR[T comparable](weight func(tenant string) int) *DRR[T] {
	return &DRR[T]{weight: weight, byID: make(map[string]*drrQueue[T])}
}

// Push appends v to tenant's queue (cost < 1 is treated as 1). A tenant
// with no backlog joins with a zero deficit at the tail of the round,
// just behind the pointer: a tenant that empties and refills rejoins
// behind every tenant already waiting, so it cannot lap them.
func (d *DRR[T]) Push(tenant string, v T, cost int) {
	q := d.byID[tenant]
	if q == nil {
		w := 1
		if d.weight != nil {
			w = max(d.weight(tenant), 1)
		}
		q = &drrQueue[T]{id: tenant, weight: w}
		d.byID[tenant] = q
		d.ring = slices.Insert(d.ring, d.cur, q)
		if len(d.ring) > 1 {
			d.cur++
		}
	}
	q.items = append(q.items, drrItem[T]{v: v, cost: max(cost, 1)})
	d.n++
}

// Pop serves the next item. A tenant for which skip reports true (for
// example one at its inflight cap) is passed over without being charged.
// Within the tenant served, the first item prefer accepts goes ahead of
// the head; nil prefers the head. ok is false when every queued item
// belongs to a skipped tenant, or nothing is queued.
func (d *DRR[T]) Pop(skip func(tenant string) bool, prefer func(T) bool) (v T, tenant string, ok bool) {
	for d.n > 0 {
		eligible := false
		for range d.ring {
			q := d.ring[d.cur]
			if skip != nil && skip(q.id) {
				d.advance()
				continue
			}
			eligible = true
			if !q.charged {
				q.deficit += q.weight
				q.charged = true
			}
			i := 0
			if prefer != nil {
				i = max(slices.IndexFunc(q.items, func(it drrItem[T]) bool { return prefer(it.v) }), 0)
			}
			if it := q.items[i]; q.deficit >= it.cost {
				q.deficit -= it.cost
				d.removeAt(d.cur, i)
				return it.v, q.id, true
			}
			d.advance()
		}
		if !eligible {
			break
		}
		// A full rotation granted quanta without serving (every candidate
		// costs more than the deficit so far); deficits grow each
		// rotation, so this terminates.
	}
	return v, "", false
}

// Remove takes v out of tenant's queue without charging the tenant. It
// reports whether v was queued.
func (d *DRR[T]) Remove(tenant string, v T) bool {
	q := d.byID[tenant]
	if q == nil {
		return false
	}
	i := slices.IndexFunc(q.items, func(it drrItem[T]) bool { return it.v == v })
	if i < 0 {
		return false
	}
	d.removeAt(slices.Index(d.ring, q), i)
	return true
}

// removeAt drops item i of the queue at ring index r; a queue left empty
// leaves the ring and is forgotten, deficit and all.
func (d *DRR[T]) removeAt(r, i int) {
	q := d.ring[r]
	q.items = slices.Delete(q.items, i, i+1)
	d.n--
	if len(q.items) > 0 {
		return
	}
	delete(d.byID, q.id)
	d.ring = slices.Delete(d.ring, r, r+1)
	if r < d.cur {
		d.cur--
	}
	if d.cur >= len(d.ring) {
		d.cur = 0
	}
}

// advance moves the pointer to the next tenant, ending the current
// tenant's visit (its next visit re-grants the quantum).
func (d *DRR[T]) advance() {
	d.ring[d.cur].charged = false
	d.cur = (d.cur + 1) % len(d.ring)
}

// Drain removes and returns every queued item: FIFO within a tenant,
// tenants in ring order.
func (d *DRR[T]) Drain() []T {
	out := make([]T, 0, d.n)
	for _, q := range d.ring {
		for _, it := range q.items {
			out = append(out, it.v)
		}
	}
	clear(d.byID)
	d.ring, d.cur, d.n = nil, 0, 0
	return out
}

// Len is the number of queued items.
func (d *DRR[T]) Len() int { return d.n }

// Queued is the number of items in tenant's queue.
func (d *DRR[T]) Queued(tenant string) int {
	if q := d.byID[tenant]; q != nil {
		return len(q.items)
	}
	return 0
}
