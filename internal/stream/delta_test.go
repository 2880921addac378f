package stream

import (
	"reflect"
	"testing"
)

func TestDiffAnswers(t *testing.T) {
	type change struct{ Entered, Left, Reordered []int }
	cases := []struct {
		name       string
		prev, next []int
		want       change
	}{
		{"first answer", nil, []int{5, 3, 9}, change{Entered: []int{5, 3, 9}}},
		{"identical", []int{5, 3, 9}, []int{5, 3, 9}, change{}},
		{"replacement", []int{5, 3, 9}, []int{5, 7, 3},
			change{Entered: []int{7}, Left: []int{9}, Reordered: []int{3}}},
		{"pure swap", []int{5, 3}, []int{3, 5},
			change{Reordered: []int{3, 5}}},
		{"shrink", []int{5, 3, 9}, []int{5}, change{Left: []int{3, 9}}},
	}
	for _, c := range cases {
		var got change
		got.Entered, got.Left, got.Reordered = diffAnswers(c.prev, c.next)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: got %+v, want %+v", c.name, got, c.want)
		}
	}
}
