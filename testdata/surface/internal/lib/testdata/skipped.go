package skipped

var _ = Thing{}.Unread
