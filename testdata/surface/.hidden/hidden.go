package hidden

import "example.com/surface/internal/lib"

var _ = lib.Dead
