package lib

import "testing"

// A test's references do not keep an export alive.
func TestDead(t *testing.T) {
	Dead()
	_ = Thing{}.Unread
	new(Thing).Unused()
	helper()
}
