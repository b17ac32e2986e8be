package vm

// DirtyPages counts the pages of v's memory written since its last
// Reset.
func DirtyPages(v *VM) int {
	n := 0
	for _, d := range v.dirty {
		if d {
			n++
		}
	}
	return n
}
