//! Integration coverage of the §VI extensions: SelfJoin, the pod engine,
//! and skewed-input sampling — across engines and fabrics.

use bytes::Bytes;
use coded_terasort::mapreduce::selfjoin::SelfJoin;
use coded_terasort::mapreduce::wordcount::WordCount;
use coded_terasort::prelude::*;
use cts_terasort::teragen::generate_skewed;

fn selfjoin_corpus() -> Bytes {
    let mut s = String::new();
    for i in 0..1200 {
        s.push_str(&format!("user{}\titem{}\n", i % 40, i % 9));
    }
    Bytes::from(s)
}

#[test]
fn selfjoin_all_engines_agree() {
    let input = selfjoin_corpus();
    let seq = run_sequential(&SelfJoin, &input, 4);
    let unc = run(&SelfJoin, input.clone(), &EngineConfig::local(4, 1)).unwrap();
    let coded = run(&SelfJoin, input.clone(), &EngineConfig::local(4, 2)).unwrap();
    let pods = run(&SelfJoin, input, &EngineConfig::local(4, 1).with_pods(2)).unwrap();
    assert_eq!(seq, unc.outputs);
    assert_eq!(seq, coded.outputs);
    assert_eq!(seq, pods.outputs);
    // There is real join output.
    let total: usize = seq.iter().map(|o| o.len()).sum();
    assert!(total > 0);
}

#[test]
fn selfjoin_emits_all_pairs_for_a_key() {
    // user0 pairs all distinct items it ever saw: C(n, 2) lines.
    let input = selfjoin_corpus();
    let outputs = run_sequential(&SelfJoin, &input, 3);
    let text: String = outputs
        .iter()
        .map(|o| String::from_utf8_lossy(o).to_string())
        .collect();
    let user0_lines = text.lines().filter(|l| l.starts_with("user0: ")).count();
    // user0 occurs with i % 9 item ids → distinct items for user0 depend
    // on the residues of i ≡ 0 (mod 40): items {0%9,40%9,80%9,…}.
    let mut items: Vec<usize> = (0..1200).filter(|i| i % 40 == 0).map(|i| i % 9).collect();
    items.sort_unstable();
    items.dedup();
    let expected = items.len() * (items.len() - 1) / 2;
    assert_eq!(user0_lines, expected);
}

#[test]
fn pods_work_over_tcp() {
    let input = selfjoin_corpus();
    let tcp = run(
        &SelfJoin,
        input.clone(),
        &EngineConfig::tcp(6, 2).with_pods(3),
    )
    .unwrap();
    let local = run(&SelfJoin, input, &EngineConfig::local(6, 2).with_pods(3)).unwrap();
    assert_eq!(tcp.outputs, local.outputs);
}

#[test]
fn pods_sort_terasort_data() {
    use cts_terasort::workload::TeraSortWorkload;
    let input = teragen::generate(4_000, 81);
    let workload = TeraSortWorkload::range(6);
    let pods = run(
        &workload,
        input.clone(),
        &EngineConfig::local(6, 2).with_pods(3),
    )
    .unwrap();
    let unc = run(&workload, input.clone(), &EngineConfig::local(6, 1)).unwrap();
    assert_eq!(pods.outputs, unc.outputs);
    cts_terasort::validate(&input, &pods.outputs).unwrap();
    // Pod group count: 2 pods × C(3,3) = 2 vs flat C(6,3) = 20.
    assert_eq!(pods.stats.num_groups, 2);
}

#[test]
fn pod_load_sits_between_flat_coded_and_uncoded() {
    let input = teragen::generate(20_000, 82);
    let d = input.len() as u64;
    let workload = cts_terasort::workload::TeraSortWorkload::range(8);
    let unc = run(&workload, input.clone(), &EngineConfig::local(8, 1)).unwrap();
    let flat = run(&workload, input.clone(), &EngineConfig::local(8, 2)).unwrap();
    let pods = run(&workload, input, &EngineConfig::local(8, 2).with_pods(4)).unwrap();
    let (lu, lf, lp) = (
        unc.stats.comm_load(d),
        flat.stats.comm_load(d),
        pods.stats.comm_load(d),
    );
    assert!(lf < lp && lp < lu, "expected {lf} < {lp} < {lu}");
}

#[test]
fn skewed_sort_end_to_end_with_sampling() {
    let input = generate_skewed(6_000, 83, 0.7, 16);
    let job = SortJob::local(6, 3).with_sampling(10);
    let run = run_coded_terasort(input.clone(), &job).unwrap();
    run.validate().unwrap();
    // Balanced partitions despite 70% of keys sharing a 16-bit prefix.
    let max = run.outcome.outputs.iter().map(|o| o.len()).max().unwrap();
    assert!(max < input.len() / 3, "max partition {max}");
}

#[test]
fn wordcount_through_pod_engine() {
    let input = Bytes::from(
        (0..2000)
            .map(|i| format!("w{} common tail{}\n", i % 311, i % 5))
            .collect::<String>(),
    );
    let seq = run_sequential(&WordCount, &input, 6);
    let pods = run(&WordCount, input, &EngineConfig::local(6, 2).with_pods(3)).unwrap();
    assert_eq!(seq, pods.outputs);
}
