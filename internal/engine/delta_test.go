package engine

import (
	"reflect"
	"testing"
)

func TestDiffOutcome(t *testing.T) {
	out := func(ids ...int) *Outcome { return &Outcome{IDs: ids} }
	cases := []struct {
		name       string
		prev, next *Outcome
		want       AnswerDelta
	}{
		{"first answer", nil, out(5, 3, 9), AnswerDelta{Entered: []int{5, 3, 9}}},
		{"identical", out(5, 3, 9), out(5, 3, 9), AnswerDelta{}},
		{"replacement", out(5, 3, 9), out(5, 7, 3),
			AnswerDelta{Entered: []int{7}, Left: []int{9}, Reordered: []int{3}}},
		{"pure swap", out(5, 3), out(3, 5),
			AnswerDelta{Reordered: []int{3, 5}}},
		{"shrink", out(5, 3, 9), out(5), AnswerDelta{Left: []int{3, 9}}},
	}
	for _, c := range cases {
		got := DiffOutcome(c.prev, c.next)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: got %+v, want %+v", c.name, got, c.want)
		}
	}
}
