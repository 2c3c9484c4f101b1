//! Damaged packed `f64` strings and counts: each returns `None` without
//! panicking, and without allocating for the count it claims, both
//! through the validated view (`Reader::packed`) and through the
//! collecting reader (`Reader::packed_f64s`). A
//! counting global allocator records the largest single allocation the
//! decoding thread makes, so a reader that sized a buffer from a
//! damaged count would show here even where the system could satisfy
//! it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ccache::codec::{parse_snapshots, snapshots_payload};
use ccache::json::{Reader, Writer, PACKED_F64_BYTES};
use nepsim::{NpuConfig, Simulator};

/// The system allocator, recording each thread's largest request.
struct Largest;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

// SAFETY: each method forwards the caller's arguments to `System`
// unchanged, so `System`'s guarantees are this allocator's. `note` only
// touches a const-initialised thread-local `Cell`, which never
// allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract, and
        // `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract, and
        // `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Largest = Largest;

/// `f`'s result and the largest single allocation it made.
fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|largest| largest.set(0));
    let value = f();
    (value, LARGEST.with(Cell::get))
}

/// A count member, then that many values packed.
fn packed_doc(values: &[f64]) -> String {
    let mut w = Writer::with_capacity(0);
    w.begin_obj();
    w.key("n").u64(values.len() as u64);
    w.key("xs").packed_f64s(values.iter().copied());
    w.end_obj();
    w.finish()
}

fn read_packed_doc(text: &str) -> Option<Vec<f64>> {
    let mut r = Reader::new(text);
    r.begin_obj()?;
    let n = r.key("n")?.usize()?;
    let xs = r.key("xs")?.packed_f64s(n)?;
    r.end_obj()?;
    r.finish()?;
    Some(xs)
}

/// The number of values the document's packed string holds, read
/// through the validated view: nothing is decoded.
fn view_len(text: &str) -> Option<usize> {
    let mut r = Reader::new(text);
    r.begin_obj()?;
    let n = r.key("n")?.usize()?;
    let len = r.key("xs")?.packed(n)?.len();
    r.end_obj()?;
    r.finish()?;
    Some(len)
}

/// `text` with its first `"name":<count>` member's count replaced.
fn with_count(text: &str, name: &str, count: u64) -> String {
    let key = format!("\"{name}\":");
    let start = text.find(&key).expect("member present") + key.len();
    let end = start + text[start..].find(',').expect("more members follow");
    format!("{}{count}{}", &text[..start], &text[end..])
}

#[test]
fn damaged_counts_are_rejected_before_any_allocation() {
    let values: Vec<f64> = (0..1000).map(|i| f64::from(i) * 0.37).collect();
    let text = packed_doc(&values);
    let (decoded, _) = largest_allocation(|| read_packed_doc(&text));
    assert_eq!(decoded.as_deref(), Some(&values[..]));

    for count in [
        0,
        999,
        1001,
        2000,
        1 << 24,
        1 << 40,
        (usize::MAX / PACKED_F64_BYTES) as u64,
        u64::MAX / 2,
        u64::MAX - 1,
        u64::MAX,
    ] {
        let bad = with_count(&text, "n", count);
        let (decoded, largest) = largest_allocation(|| read_packed_doc(&bad));
        assert_eq!(decoded, None, "count {count} accepted");
        // The closing quote is not where the count puts it, so the reader
        // stops before it allocates anything.
        assert_eq!(largest, 0, "count {count}: allocated {largest} bytes");
        assert_eq!(view_len(&bad), None, "view of count {count} accepted");
    }
}

#[test]
fn the_view_validates_without_allocating_and_decodes_by_index() {
    let values: Vec<f64> = (0..1000)
        .map(|i| f64::from(i).ln())
        .chain([f64::NAN, -0.0, f64::INFINITY, f64::MIN_POSITIVE / 3.0])
        .collect();
    let text = packed_doc(&values);
    let (len, largest) = largest_allocation(|| view_len(&text));
    assert_eq!(len, Some(values.len()));
    assert_eq!(largest, 0, "the view allocated {largest} bytes");

    let mut r = Reader::new(&text);
    r.begin_obj().unwrap();
    let n = r.key("n").unwrap().usize().unwrap();
    let view = r.key("xs").unwrap().packed(n).unwrap();
    let bits = |xs: &mut dyn Iterator<Item = f64>| xs.map(f64::to_bits).collect::<Vec<_>>();
    let expected = bits(&mut values.iter().copied());
    assert_eq!(bits(&mut (0..n).map(|i| view.get(i).unwrap())), expected);
    assert_eq!(bits(&mut view.iter()), expected);
    for past in [n, n + 1, usize::MAX / PACKED_F64_BYTES, usize::MAX] {
        assert_eq!(view.get(past), None, "index {past}");
    }
}

#[test]
fn bad_digits_are_rejected_with_allocation_bounded_by_the_input() {
    let values: Vec<f64> = (0..1000).map(|i| f64::from(i).sqrt()).collect();
    let text = packed_doc(&values);
    let body = text.find("\"xs\":\"").unwrap() + 6;
    for (at, byte) in [
        (0, 'Q'),
        (11 * 500, '_'),
        (11 * 999, 'z'),
        (3, '+'),
        (11 * 700 + 4, '/'),
        (11 * 999 + 10, '='),
        (17, '#'),
        (5000, '.'),
    ] {
        let mut bad = text.clone().into_bytes();
        bad[body + at] = byte as u8;
        let bad = String::from_utf8(bad).unwrap();
        let (decoded, largest) = largest_allocation(|| read_packed_doc(&bad));
        assert_eq!(decoded, None, "{byte:?} at digit {at} accepted");
        // The whole string is validated before the output is sized.
        assert_eq!(largest, 0, "{byte:?} at {at}: allocated {largest} bytes");
        assert_eq!(
            view_len(&bad),
            None,
            "view: {byte:?} at digit {at} accepted"
        );
    }
}

#[test]
fn window_idle_counts_other_than_windows_times_mes_are_rejected() {
    let config = NpuConfig::builder()
        .seed(3)
        .policy("edvs".parse().unwrap())
        .build();
    let report = Simulator::new(config).run_cycles(400_000);
    let samples = report.window_idle.len() as u64;
    assert_eq!(samples, report.windows * report.mes.len() as u64);
    assert!(samples > 0);
    let payload = snapshots_payload(std::slice::from_ref(&report));
    assert_eq!(parse_snapshots(&payload), Some(vec![report.clone()]));

    for count in [
        0,
        samples - 1,
        samples + 1,
        samples + report.mes.len() as u64,
        samples * 2,
        1 << 24,
        1 << 40,
        u64::MAX / 8,
        u64::MAX,
    ] {
        let bad = with_count(&payload, "window_idle_len", count);
        let (decoded, largest) = largest_allocation(|| parse_snapshots(&bad));
        assert_eq!(decoded, None, "window_idle_len {count} accepted");
        // What the decoder allocated before the count check (the report's
        // MEs, the snapshot list) is small; a buffer for the claimed
        // samples is not.
        assert!(largest < 4096, "window_idle_len {count}: {largest} bytes");
    }
    // A damaged `windows` that disagrees with the samples is caught the
    // same way.
    let bad = with_count(&payload, "windows", report.windows + 1);
    assert_eq!(parse_snapshots(&bad), None);
}
