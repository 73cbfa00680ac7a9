// L6 bad: a library result computed by the reference it is checked against.
pub fn group_result(windows: &[ReadWindow<'_>]) -> Vec<u8> {
    crate::oracle::gather(windows)
}
