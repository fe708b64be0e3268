package skip

import "example.com/surface/internal/lib"

var _ = new(lib.Thing).Unused
