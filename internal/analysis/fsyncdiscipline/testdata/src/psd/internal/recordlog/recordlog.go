package recordlog

import "os"

// Rewriting a record log wholesale would let a crash leave it torn: records
// are appended and fsynced through the open handle, never re-created.
func rewrite(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644) // want `os\.WriteFile in psd/internal/recordlog`
}

func open(path string) (*os.File, error) {
	return os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644) // appends through the handle are fsynced by the log
}
