// Command tool: a main package's lines count, its exports do not.
package main

import "example.com/surface/internal/lib"

func Exported() {}

func main() {
	var t lib.Thing
	_ = t.Get()
	Exported()
}
