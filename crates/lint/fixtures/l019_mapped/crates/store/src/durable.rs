//! Fixture: a block sliced out of an SSTable's mapping is a disk block
//! read too — its checksum early-return escapes before the charges land.

pub fn fold_mapped(blocks: &DiskBlocks, meta: &BlockMeta, receipt: &mut ReadReceipt) -> io::Result<usize> {
    let block = blocks.mapped_block(meta);
    if checksum64(0, block) != meta.crc {
        return Err(corrupt(meta.offset));
    }
    receipt.disk_blocks_read += 1;
    receipt.disk_bytes_read += meta.len as u64;
    Ok(block.len())
}
