package faultfs

// The file-publish protocol the persistence layer shares: a file is
// replaced by writing a temp file beside it, fsyncing and closing it, and
// renaming it over the old one, and the rename is made durable by fsyncing
// the directory. A crash at any point leaves either the old file or the
// new one, never a mix.

import "io"

// WriteFileAtomic publishes data at path via path+".tmp": create, write,
// fsync, close, rename. The rename never publishes bytes that are still
// only in the page cache. The temp file is removed if any step fails. The
// caller makes the rename durable with SyncDir — once per batch of
// publishes into one directory, if it likes.
func WriteFileAtomic(fsys FS, path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return err
	}
	return nil
}

// SyncDir fsyncs directory dir, making creates and renames within it
// durable.
func SyncDir(fsys FS, dir string) error {
	d, err := fsys.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReadFile reads path fully through fsys into one buffer sized from Stat.
func ReadFile(fsys FS, path string) ([]byte, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, st.Size())
	if _, err := io.ReadFull(f, buf); err != nil {
		return nil, err
	}
	return buf, nil
}
