//! Fixture: the flush path in the docs/STORE.md contract order —
//! write → fsync → rename → dir-fsync, and GC strictly after the
//! manifest commit.

fn write_sst(dir: &str, data: &[u8]) -> std::io::Result<()> {
    let mut file = std::fs::File::create("001.sst.tmp")?;
    file.write_all(data)?;
    file.sync_data()?;
    std::fs::rename("001.sst.tmp", "001.sst")?;
    std::fs::File::open(dir)?.sync_all()?;
    Ok(())
}

pub fn flush(store: &mut Store, dir: &str, data: &[u8]) -> std::io::Result<()> {
    write_sst(dir, data)?;
    store.crash.fire(CrashPoint::AfterSstWrite);
    store.manifest.commit("001.sst")?;
    store.crash.fire(CrashPoint::AfterCommit);
    std::fs::remove_file("000.sst")?;
    Ok(())
}

/// The charges land right after the read, before the checksum branch,
/// so every path to the exit is accounted (KVS-L019 pass).
pub fn load_block(file: &mut File, meta: &BlockMeta, receipt: &mut ReadReceipt) -> std::io::Result<Vec<u8>> {
    let mut buf = vec![0u8; meta.len];
    file.read_exact(&mut buf)?;
    receipt.disk_blocks_read += 1;
    receipt.disk_bytes_read += meta.len as u64;
    if fnv64(&buf) != meta.checksum {
        return Err(corrupt(meta.offset));
    }
    Ok(buf)
}

/// The mapped twin: a block sliced out of the SSTable's mapping is
/// charged before its checksum is judged (KVS-L019 pass).
pub fn fold_mapped(blocks: &DiskBlocks, meta: &BlockMeta, receipt: &mut ReadReceipt) -> std::io::Result<usize> {
    let block = blocks.mapped_block(meta);
    receipt.disk_blocks_read += 1;
    receipt.disk_bytes_read += meta.len as u64;
    if checksum64(0, block) != meta.crc {
        return Err(corrupt(meta.offset));
    }
    Ok(block.len())
}
