package tenant

import (
	"fmt"
	"slices"
	"testing"
)

// FuzzDRR drives a DRR with random Push/Pop/Remove against a reference
// model of per-tenant FIFOs. Input layout: byte 0 picks 1–4 tenants
// (low two bits) and unit or random 1–8 costs (bit 2); one byte per
// tenant gives its weight, 1–4; every later byte is an op — bits 0–1 the
// kind (push, pop, pop with a prefer predicate, remove), the high bits
// its tenant or predicate, and pushes at random cost and removes read
// one more byte. It checks that every item leaves exactly once (Pop,
// Remove or the final Drain), that a pop takes the first preferred item
// of its tenant or else the head, that Len and Queued match the model,
// and that with unit costs no backlogged tenant waits more than
// K = Σ_{j≠i} w_j + max_j w_j pops of other tenants (DESIGN.md §12).
func FuzzDRR(f *testing.F) {
	// Two tenants take turns emptying and refilling while t0 stays
	// backlogged: each must rejoin behind t0, not lap it.
	f.Add([]byte{0x02, 0, 0, 0, 0x00, 0x00, 0x04, 0x08, 0x01, 0x01,
		0x04, 0x01, 0x08, 0x01, 0x04, 0x01, 0x08, 0x01, 0x04, 0x01, 0x08, 0x01})
	f.Add([]byte{0x07, 3, 1, 2, 0, 0x00, 0x06, 0x04, 0x05, 0x08, 0x02, 0x03, 0x01, 0x0e, 0x07, 0x01, 0x01})
	f.Add([]byte{0x03, 1, 2, 3, 0, 0x00, 0x04, 0x08, 0x0c, 0x00, 0x04, 0x02, 0x12, 0x03, 0x02, 0x01, 0x01, 0x07, 0x05, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		nt, unitCost := 1+int(data[0]%4), data[0]&4 == 0
		data = data[1:]
		if len(data) < nt {
			return
		}
		ids := make([]string, nt)
		weights := map[string]int{}
		sum, maxW := 0, 0
		for i := range ids {
			ids[i] = fmt.Sprintf("t%d", i)
			w := 1 + int(data[i]%4)
			weights[ids[i]] = w
			sum += w
			maxW = max(maxW, w)
		}
		data = data[nt:]
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}

		d := NewDRR[int](func(id string) int { return weights[id] })
		ref := map[string][]int{} // the model: each tenant's FIFO
		owner := map[int]string{} // queued item → tenant
		left := map[int]bool{}    // items that have left, by any route
		waits := map[string]int{} // other-tenant pops since a tenant's last turn
		pushed := 0
		leave := func(v int, how string) {
			if left[v] {
				t.Fatalf("item %d left twice (second time by %s)", v, how)
			}
			left[v] = true
			ten := owner[v]
			ref[ten] = slices.DeleteFunc(ref[ten], func(x int) bool { return x == v })
			delete(owner, v)
		}
		for len(data) > 0 {
			op := next()
			switch op % 4 {
			case 0:
				ten, cost := ids[(op>>2)%nt], 1
				if !unitCost {
					cost = 1 + next()%8
				}
				if len(ref[ten]) == 0 {
					waits[ten] = 0
				}
				d.Push(ten, pushed, cost)
				ref[ten] = append(ref[ten], pushed)
				owner[pushed] = ten
				pushed++
			case 1, 2:
				var prefer func(int) bool
				if op%4 == 2 {
					m := 2 + (op>>2)%4
					prefer = func(v int) bool { return v%m == 0 }
				}
				v, ten, ok := d.Pop(nil, prefer)
				if !ok {
					if len(owner) > 0 {
						t.Fatalf("Pop found nothing with %d items queued", len(owner))
					}
					continue
				}
				if owner[v] != ten {
					t.Fatalf("Pop returned item %d as %q's, but it is queued for %q", v, ten, owner[v])
				}
				want := ref[ten][0]
				if prefer != nil {
					if i := slices.IndexFunc(ref[ten], prefer); i >= 0 {
						want = ref[ten][i]
					}
				}
				if v != want {
					t.Fatalf("Pop served %s item %d, want %d (queue %v)", ten, v, want, ref[ten])
				}
				for _, other := range ids {
					if other == ten || len(ref[other]) == 0 {
						continue
					}
					waits[other]++
					if k := sum - weights[other] + maxW; unitCost && waits[other] > k {
						t.Fatalf("backlogged %s waited %d pops, K = %d", other, waits[other], k)
					}
				}
				waits[ten] = 0
				leave(v, "Pop")
			case 3:
				// Target a queued item, or one that already left.
				v := next() % (pushed + 1)
				ten := owner[v]
				if ten == "" {
					ten = ids[(op>>2)%nt]
				}
				if got, want := d.Remove(ten, v), owner[v] != ""; got != want {
					t.Fatalf("Remove(%s, %d) = %v, want %v", ten, v, got, want)
				}
				if owner[v] != "" {
					leave(v, "Remove")
				}
			}
			if d.Len() != len(owner) {
				t.Fatalf("Len = %d, model holds %d", d.Len(), len(owner))
			}
			for _, ten := range ids {
				if d.Queued(ten) != len(ref[ten]) {
					t.Fatalf("Queued(%s) = %d, model holds %d", ten, d.Queued(ten), len(ref[ten]))
				}
			}
		}

		byTenant := map[string][]int{}
		for _, v := range d.Drain() {
			byTenant[owner[v]] = append(byTenant[owner[v]], v)
		}
		for _, ten := range ids {
			if !slices.Equal(byTenant[ten], ref[ten]) {
				t.Fatalf("Drain gave %s %v, want its FIFO %v", ten, byTenant[ten], ref[ten])
			}
			for _, v := range slices.Clone(ref[ten]) {
				leave(v, "Drain")
			}
		}
		if len(left) != pushed || d.Len() != 0 || len(d.Drain()) != 0 {
			t.Fatalf("%d of %d items left; Len %d after Drain", len(left), pushed, d.Len())
		}
	})
}
