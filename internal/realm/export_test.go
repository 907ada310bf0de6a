package realm

// livePages counts the event-table pages currently held: the pages some
// untriggered (or not yet created) event still lives in.
func (t *EventTable) livePages() int {
	n := 0
	for _, p := range t.pages {
		if p != nil {
			n++
		}
	}
	return n
}
