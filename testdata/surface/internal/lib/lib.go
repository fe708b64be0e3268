// Package lib declares one of every kind of name the surface scan sees.
package lib

// Used is called from cmd/tool.
func Used() int { return Max }

// Dead is exported, and only a test and skipped directories name it.
func Dead() {}

func helper() {}

// Thing is an exported struct: its exported named fields count.
type Thing struct {
	Read   int
	Unread int
	hidden int
}

// Get counts: an exported method of an exported type.
func (t Thing) Get() int { return t.Read + t.hidden }

// Unused counts, and nothing outside tests calls it.
func (t *Thing) Unused() {}

// inner is unexported, so neither its field nor its method counts.
type inner struct{ Field int }

func (inner) Exported() {}

// Max and Default count as top-level const and var.
const Max = 3

var Default = Thing{}
