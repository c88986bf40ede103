package powernet

import (
	"fmt"
)

// State is the serializable state of a PowerTable: the retained rows in
// chronological order plus the lifetime counters. The capacity is
// construction-time input; a snapshot restores only onto a table of the
// same capacity or larger history never recorded.
type State struct {
	Rows  []Reading `json:"rows"`
	Last  Reading   `json:"last"`
	Total int       `json:"total"`
}

// Snapshot captures the table's retained history.
func (t *PowerTable) Snapshot() State {
	st := State{Rows: t.Rows(), Total: t.n}
	st.Last, _ = t.Last()
	return st
}

// Restore overwrites the table from a snapshot taken from a table of the
// same capacity. The ring is rebuilt in place, on the table's own rows, by
// replaying the retained rows in order, so the restored table evicts
// identically to the original. Invalid state is rejected before anything
// is mutated.
func (t *PowerTable) Restore(st State) error {
	if err := t.CheckRestore(st); err != nil {
		return err
	}
	for j := 0; j < t.cap; j++ {
		t.rows[j*t.stride] = Reading{}
	}
	t.next = 0
	t.pos = 0
	t.full = false
	t.n = 0
	for _, r := range st.Rows {
		t.Record(r)
	}
	t.n = st.Total
	return nil
}

// CheckRestore reports whether Restore would accept st, without touching
// the table, so a caller restoring several parts all-or-nothing can check
// the table before it commits any of them.
func (t *PowerTable) CheckRestore(st State) error {
	if len(st.Rows) > t.cap {
		return fmt.Errorf("powernet: restore: %d rows exceed table capacity %d", len(st.Rows), t.cap)
	}
	if st.Total < len(st.Rows) {
		return fmt.Errorf("powernet: restore: total recorded %d below retained row count %d",
			st.Total, len(st.Rows))
	}
	if (st.Total > 0) != (len(st.Rows) > 0) {
		return fmt.Errorf("powernet: restore: total recorded %d inconsistent with %d retained rows",
			st.Total, len(st.Rows))
	}
	if n := len(st.Rows); n > 0 && st.Rows[n-1] != st.Last {
		return fmt.Errorf("powernet: restore: last reading does not match newest retained row")
	}
	return nil
}
