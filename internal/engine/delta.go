package engine

// AnswerDelta is the difference between two top-K answers over the same
// stream — what a continuous follower reports when a new chunk of
// footage lands. Order within each list is deterministic: Entered and
// Reordered follow the new answer's rank order, Left follows the old
// answer's.
type AnswerDelta struct {
	// Entered lists frames in the new answer but not the old, in new
	// rank order.
	Entered []int
	// Left lists frames dropped from the old answer, in old rank order.
	Left []int
	// Reordered lists frames present in both answers whose rank
	// changed, in new rank order.
	Reordered []int
}

// DiffOutcome computes the answer delta from prev to next. A nil prev
// means no answer yet: every frame of next enters. Only membership and
// rank are compared; score refinements that leave the ranking intact
// produce an empty delta.
func DiffOutcome(prev, next *Outcome) AnswerDelta {
	var d AnswerDelta
	if next == nil {
		next = &Outcome{}
	}
	rankNext := make(map[int]int, len(next.IDs))
	for r, f := range next.IDs {
		rankNext[f] = r
	}
	var rankPrev map[int]int
	if prev != nil {
		rankPrev = make(map[int]int, len(prev.IDs))
		for r, f := range prev.IDs {
			rankPrev[f] = r
		}
		for _, f := range prev.IDs {
			if _, ok := rankNext[f]; !ok {
				d.Left = append(d.Left, f)
			}
		}
	}
	for r, f := range next.IDs {
		if pr, ok := rankPrev[f]; !ok {
			d.Entered = append(d.Entered, f)
		} else if pr != r {
			d.Reordered = append(d.Reordered, f)
		}
	}
	return d
}
