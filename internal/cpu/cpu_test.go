package cpu

import "testing"

func TestCapLowersAndRestores(t *testing.T) {
	top := Detected()
	if !Has(Scalar) || !Has(top) || Has(top+1) {
		t.Fatalf("uncapped: Has(scalar)=%v Has(%v)=%v Has(%v)=%v", Has(Scalar), top, Has(top), top+1, Has(top+1))
	}
	for l := top; l >= Scalar; l-- {
		restore := Cap(l)
		for q := Scalar; q <= AVX512; q++ {
			if got, want := Has(q), q <= l; got != want {
				t.Errorf("Cap(%v): Has(%v) = %v, want %v", l, q, got, want)
			}
		}
		restore()
	}
	if !Has(top) {
		t.Fatalf("restore left %v disabled", top)
	}
}

func TestEachVisitsEveryLevelWidestFirst(t *testing.T) {
	var seen []Level
	Each(func(l Level) {
		if !Has(l) || Has(l+1) {
			t.Errorf("inside Each(%v): Has(%v)=%v Has(%v)=%v", l, l, Has(l), l+1, Has(l+1))
		}
		seen = append(seen, l)
	})
	if len(seen) != int(Detected())+1 || seen[0] != Detected() || seen[len(seen)-1] != Scalar {
		t.Fatalf("Each visited %v", seen)
	}
	if !Has(Detected()) {
		t.Fatal("Each left the datapath capped")
	}
}
