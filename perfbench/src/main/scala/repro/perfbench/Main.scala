package repro.perfbench

import java.nio.file.{Files, Path, Paths}

import scala.collection.immutable.ListMap
import scala.collection.mutable
import scala.util.Try

import com.fasterxml.jackson.databind.ObjectMapper
import com.fasterxml.jackson.module.scala.DefaultScalaModule
import org.apache.spark.sql.{Dataset, SparkSession}
import repro.core.{QuantizedWordSpace, Series, SeriesRecord}
import repro.data.{Benchmark17, SeriesGen}
import repro.data.Benchmark17.DatasetSpec
import repro.spark.{Built, DistributedIndex, EngineFactory, IndexConfig, McbSpark}

/** One benchmark run: one workload, one seed, tracing on or off.
  *
  * Every engine is built over the same generated dataset on Spark
  * `local[cores]` with one partition per core, then driven by one client in
  * a closed loop through `Built.search` and `Built.searchBatch`. Times are
  * driver wall times around those calls. Every answer is checked against a
  * brute-force reference computed before timing starts.
  *
  * Usage: `Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  *   --out <dir> [--git-sha <sha>] [--source-sha <sha>]`; `perfbench/run.py`
  * builds the classpath and passes these.
  */
object Main {

  /** A `Benchmark17` catalog dataset, its series count times `scale`,
    * searched for `k` nearest neighbours. Both call shapes run on every
    * workload; `searchBatch` gets the larger share of the measuring time.
    */
  final case class Workload(name: String, dataset: String, scale: Double, k: Int)

  // Both datasets at half their catalog size (48 000 series): one run sets
  // up all four engines three times and takes at least `TailSamples` single
  // queries per tree engine, and a run must stay well inside its time budget.
  val Workloads: Seq[Workload] = Seq(
    Workload("seismic-batch-k10", "SCEDC", 0.5, 10),
    Workload("vector-batch-k50", "SIFT1b", 0.5, 50),
  )

  val Engines: Seq[String] = Seq("sofa", "messi", "ucr", "faiss")
  val PoolSize = 128       // distinct queries, each with a brute-force answer
  // Queries per searchBatch call: the 10-query set per dataset of the
  // repository's Table II protocol (DESIGN.md), the low end of its 10-20.
  val BatchSize = 10
  val SetupReps = 3        // setup_s is the median of these
  val WarmupRounds = 50    // untimed search rounds before measuring
  val TailP = 90.0
  /** Fewest single-query samples per engine: 15 beyond p90 on the engines
    * whose p90 is reported. A traced run reports no tail, so each of its
    * halves needs only `MinMedian`.
    */
  val TailSamples = 150
  val MinMedian = 30
  val MinSingle: Map[String, Int] =
    Map("sofa" -> TailSamples, "messi" -> TailSamples, "ucr" -> 40, "faiss" -> 40)
  /** Fewest `searchBatch` rounds, and so calls per engine; per half in a
    * traced run.
    */
  val MinBatchCalls = 9
  val MinTracedBatchCalls = 7
  val BatchQuantumS = 0.2  // per engine and batch round
  val SingleShare = 0.5    // of --seconds; the rest goes to searchBatch
  val KernelSeries = 8192  // data series each kernel timing runs over

  final case class Options(workload: Workload, seed: Long, seconds: Double, trace: Boolean,
                           out: Path, gitSha: String, sourceSha: String)

  def parse(args: Array[String]): Options = {
    val m = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = m.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val w = need("workload")
    Options(
      workload = Workloads.find(_.name == w).getOrElse(
        throw new IllegalArgumentException(s"unknown workload $w; one of ${Workloads.map(_.name).mkString(", ")}")),
      seed = need("seed").toLong,
      seconds = need("seconds").toDouble,
      trace = need("trace") match {
        case "0" => false
        case "1" => true
        case t => throw new IllegalArgumentException(s"--trace must be 0 or 1, got $t")
      },
      out = Paths.get(need("out")),
      gitSha = m.getOrElse("git-sha", "unknown"),
      sourceSha = m.getOrElse("source-sha", "unknown"),
    )
  }

  def main(args: Array[String]): Unit = {
    val opts = parse(args)
    val cores = sys.env.get("SPARK_GRAFT_CPUS").flatMap(_.toIntOption).filter(_ > 0)
      .getOrElse(Runtime.getRuntime.availableProcessors())
    Files.createDirectories(opts.out)
    val spark = SparkSession.builder()
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", opts.out.resolve("spark-local").toAbsolutePath.toString)
      .config("spark.sql.warehouse.dir", opts.out.resolve("warehouse").toAbsolutePath.toString)
      .config("spark.sql.shuffle.partitions", cores.toString)
      .config("spark.default.parallelism", cores.toString)
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    try new Run(spark, opts, cores).execute()
    finally spark.stop()
  }

  /** A metric as printed: name, value, unit. */
  final case class Metric(name: String, value: Double, unit: String) {
    require(!value.isNaN && !value.isInfinite, s"$name is not a finite number: $value")
  }

  /** Writes the result line, result file and span file (Jackson and its
    * Scala module come with Spark's jars). A `ListMap` keeps its fields in
    * the order they are listed.
    */
  val json: ObjectMapper = new ObjectMapper().registerModule(DefaultScalaModule)
}

/** State and steps of one run. */
final class Run(spark: SparkSession, opts: Main.Options, cores: Int) {
  import Main._

  private val sc = spark.sparkContext
  private val w = opts.workload
  private val k = w.k
  private val spec: DatasetSpec =
    Benchmark17.catalog.find(_.name == w.dataset).get.scaled(w.scale).copy(seed = opts.seed)
  private val cfg = IndexConfig(leafCapacity = 100, partitions = cores, seed = opts.seed)
  private val tracer = new Tracer(sc)
  private var tracing = false

  // raw timed samples by "<engine>.<call>", in call order
  private val samples = mutable.LinkedHashMap.empty[String, Seq[Double]]

  private def log(msg: String): Unit = Console.err.println(s"[perfbench] $msg")

  /** Register or remove the tracer. Before it is removed, it receives every
    * event already posted, so no traced job loses its tail of task events.
    */
  private def setTracing(on: Boolean): Unit = {
    if (on && !tracing) sc.addSparkListener(tracer)
    if (!on && tracing) { tracer.drain(); sc.removeSparkListener(tracer) }
    tracing = on
  }

  /** `body` as a traced root span when tracing, else plainly. Engine calls
    * give the number of queries they answer.
    */
  private def traced[T](name: String, queries: Int = 0)(body: => T): T =
    if (!tracing) body
    else tracer.span(name, if (queries == 0) Map.empty else Map("queries" -> queries.toDouble))(body)

  private def builders(n: Int): Seq[(String, Dataset[SeriesRecord] => Built)] = Seq(
    "sofa"  -> (ds => EngineFactory.sofa(ds, n, cfg)),
    "messi" -> (ds => EngineFactory.messi(ds, n, cfg)),
    "ucr"   -> (ds => EngineFactory.ucr(ds, cfg.partitions)),
    "faiss" -> (ds => EngineFactory.faiss(ds, cfg.partitions)),
  )

  private def secondsSince(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  /** Build all four engines; returns them with per-engine build seconds,
    * total seconds and the persisted size of the SOFA trees in MiB.
    */
  private def setup(ds: Dataset[SeriesRecord]): (Seq[(String, Built)], Map[String, Double], Double, Double) = {
    val times = mutable.LinkedHashMap.empty[String, Double]
    var sofaMb = 0.0
    val t0 = System.nanoTime()
    val built = builders(spec.len).map { case (name, build) =>
      val before = sc.getRDDStorageInfo.map(_.id).toSet
      val t1 = System.nanoTime()
      val b = traced(s"$name.build")(build(ds))
      times(name) = secondsSince(t1)
      if (name == "sofa")
        sofaMb = sc.getRDDStorageInfo.filterNot(i => before(i.id)).map(_.memSize).sum / 1048576.0
      name -> b
    }
    log(f"setup ${secondsSince(t0)}%.2f s: " + times.map { case (e, t) => f"$e=$t%.2f" }.mkString(" "))
    (built, times.toMap, secondsSince(t0), sofaMb)
  }

  /** Generate the dataset on the driver, z-normalized, ids = positions. */
  private def driverData(): Array[Array[Float]] = {
    val n = spec.count.toInt
    val out = new Array[Array[Float]](n)
    val chunk = 4096
    Exactness.parallel((n + chunk - 1) / chunk, cores) { c =>
      var i = c * chunk
      while (i < math.min(n, (c + 1) * chunk)) {
        out(i) = Series.znorm(SeriesGen.series(spec.profile, spec.seed, i.toLong)); i += 1
      }
    }
    out
  }

  /** Samples of one measuring pass by engine: of untraced calls, and of
    * traced calls when traced and untraced rounds alternate.
    */
  private final case class Timed(plain: Map[String, Seq[Double]], traced: Map[String, Seq[Double]])

  private def buffers(engines: Seq[(String, Built)]) =
    Seq(false, true).map(_ -> engines.map(_._1 -> mutable.ArrayBuffer.empty[Double]).toMap).toMap

  private def timed(bufs: Map[Boolean, Map[String, mutable.ArrayBuffer[Double]]]): Timed = {
    def seqs(on: Boolean) = bufs(on).map { case (e, xs) => e -> xs.toSeq }
    Timed(seqs(false), seqs(true))
  }

  /** Closed loop of single `search` calls, all engines on the same query per
    * round. An engine stays in the loop while `seconds` have not passed or it
    * has had fewer than `minSamples(engine)` rounds. With `alternate`, odd
    * rounds are traced and even ones are not, so both share one stretch of
    * time, and each gets `minSamples` rounds. Returns per-engine wall times
    * in ms of the calls that succeeded.
    */
  private def singleLoop(engines: Seq[(String, Built)], pool: Array[Array[Float]],
                         gate: Option[Exactness.Gate], seconds: Double,
                         minSamples: String => Int, alternate: Boolean): Timed = {
    val ms = buffers(engines)
    val perRound = if (alternate) 2 else 1
    val t0 = System.nanoTime()
    var r = 0
    def active = engines.filter { case (e, _) => r < perRound * minSamples(e) || secondsSince(t0) < seconds }
    var round = active
    while (round.nonEmpty) {
      val qi = r % pool.length
      val on = alternate && r % 2 == 1
      setTracing(on)
      round.foreach { case (eng, b) =>
        val t1 = System.nanoTime()
        val ans = Try(traced(s"$eng.search", 1)(b.search(pool(qi), k)))
        val dt = (System.nanoTime() - t1) / 1e6
        if (ans.isSuccess) ms(on)(eng) += dt else log(s"$eng.search failed: ${ans.failed.get}")
        gate.foreach(_.record(eng, qi, ans))
      }
      r += 1
      round = active
    }
    setTracing(false)
    timed(ms)
  }

  /** Closed loop of `searchBatch` calls of `BatchSize` queries. In each round
    * every engine in turn makes calls until it has spent `BatchQuantumS`
    * (at least one call), so fast engines get as many samples as slow ones
    * get time. Rounds go on while `seconds` have not passed or fewer than
    * `minCalls` rounds were made (in each half, with `alternate`: then odd
    * rounds are traced). Each engine walks the pool in the same order.
    * Returns per-engine queries per second of each call that succeeded.
    */
  private def batchLoop(engines: Seq[(String, Built)], pool: Array[Array[Float]],
                        gate: Option[Exactness.Gate], seconds: Double,
                        minCalls: Int, alternate: Boolean): Timed = {
    val qps = buffers(engines)
    val calls = mutable.Map.empty[String, Int].withDefaultValue(0)
    val perRound = if (alternate) 2 else 1
    val t0 = System.nanoTime()
    var r = 0
    while (r < perRound * minCalls || secondsSince(t0) < seconds) {
      val on = alternate && r % 2 == 1
      setTracing(on)
      engines.foreach { case (eng, b) =>
        val round0 = System.nanoTime()
        do {
          val qis = (0 until BatchSize).map(j => (calls(eng) * BatchSize + j) % pool.length)
          calls(eng) += 1
          val t1 = System.nanoTime()
          val ans = Try(traced(s"$eng.searchBatch", BatchSize)(b.searchBatch(qis.map(pool(_)), k)))
          val dt = (System.nanoTime() - t1) / 1e9
          if (ans.isSuccess) qps(on)(eng) += BatchSize / dt
          else log(s"$eng.searchBatch failed: ${ans.failed.get}")
          gate.foreach(g => qis.indices.foreach(j => g.record(eng, qis(j), ans.map(_(j)))))
        } while (secondsSince(round0) < BatchQuantumS)
      }
      r += 1
    }
    setTracing(false)
    timed(qps)
  }

  def execute(): Unit = {
    val runT0 = System.nanoTime()
    log(s"workload=${w.name} dataset=${spec.name} series=${spec.count} n=${spec.len} k=$k " +
        s"seed=${opts.seed} cores=$cores trace=${opts.trace}")

    // Inputs: the dataset (lazy, generated inside each build) and the query
    // pool; the brute-force reference is computed before any timing.
    val (ds, pool) = Benchmark17.load(spark, spec, PoolSize)
    val zs = driverData()
    val poolZ = pool.map(Series.znorm)
    val ref = Exactness.reference(zs, poolZ, k, cores)
    val kth = poolZ.indices.map(ref.kthDist(_, k)).toArray
    val gate = new Exactness.Gate(ref, k)
    log(f"reference done at ${secondsSince(runT0)}%.1f s")

    // The first setup also pays Spark's first jobs and the JIT of the build
    // paths; the median over the repetitions leaves it out.
    setTracing(opts.trace)
    val setups = (1 to SetupReps).map { rep =>
      val s = setup(ds)
      if (rep < SetupReps) s._1.foreach(_._2.close())
      s
    }
    setTracing(false)
    val engines = setups.last._1
    val setupS = Stats.median(setups.map(_._3))
    val indexMb = Stats.median(setups.map(_._4))
    val buildS = Engines.map(e => e -> Stats.median(setups.map(_._2(e)))).toMap

    // Untimed, fixed length: first calls on the full-size engines (a tree's
    // or UCR's searchBatch loops over search; FAISS's search is a batch of
    // one). The timed searchBatch calls then come before the timed single
    // calls, so the single-query tail is measured on code they warmed too.
    singleLoop(engines, pool, None, 0, _ => WarmupRounds, alternate = false)
    log(f"setups and warm-up done at ${secondsSince(runT0)}%.1f s")

    val batchS = opts.seconds * (1 - SingleShare)
    val singleS = opts.seconds * SingleShare
    val (batch, single) =
      if (!opts.trace)
        (batchLoop(engines, pool, Some(gate), batchS, MinBatchCalls, alternate = false),
         singleLoop(engines, pool, Some(gate), singleS, MinSingle, alternate = false))
      else
        // Untraced and traced rounds alternate over the same engines and
        // queries: the difference is the tracing overhead. Per-layer
        // figures come from the traced rounds.
        (batchLoop(engines, pool, Some(gate), batchS, MinTracedBatchCalls, alternate = true),
         singleLoop(engines, pool, Some(gate), singleS, _ => MinMedian, alternate = true))
    log(f"measured at ${secondsSince(runT0)}%.1f s")
    Engines.foreach { e =>
      samples(s"$e.searchBatch_qps") = batch.plain(e)
      samples(s"$e.search_ms") = single.plain(e)
      if (opts.trace) {
        samples(s"$e.searchBatch_qps.traced") = batch.traced(e)
        samples(s"$e.search_ms.traced") = single.traced(e)
      }
    }

    val e2e = mutable.ArrayBuffer.empty[Metric]
    val layer = mutable.ArrayBuffer.empty[Metric]
    var spansOut: Seq[Span] = Nil
    if (!opts.trace) {
      val ms = single.plain
      e2e += Metric("sofa.query_p50_ms", Stats.median(ms("sofa")), "ms")
      e2e += Metric("sofa.query_p90_ms", Stats.percentile(ms("sofa"), TailP), "ms")
      e2e += Metric("messi.query_p50_ms", Stats.median(ms("messi")), "ms")
      e2e += Metric("messi.query_p90_ms", Stats.percentile(ms("messi"), TailP), "ms")
      e2e += Metric("ucr.query_p50_ms", Stats.median(ms("ucr")), "ms")
      e2e += Metric("faiss.query_p50_ms", Stats.median(ms("faiss")), "ms")
      Engines.foreach(e => e2e += Metric(s"$e.batch_qps", Stats.median(batch.plain(e)), "1/s"))
      e2e += Metric("setup_s", setupS, "s")
      e2e += Metric("sofa.index_mb", indexMb, "MiB")
    } else {
      // separate passes over the layers that setup runs together
      setTracing(true)
      val genS = { val t0 = System.nanoTime(); traced("data.gen")(ds.rdd.count()); secondsSince(t0) }
      val fitS = {
        val t0 = System.nanoTime()
        traced("mcb.fit")(McbSpark.fit(ds, spec.len, cfg.l, cfg.alpha, cfg.maxCoeff,
          cfg.sampleRate, cfg.seed, cfg.binning, cfg.selection))
        secondsSince(t0)
      }
      setTracing(false)
      spansOut = tracer.spans

      layer += Metric("data.gen_s", genS, "s")
      layer += Metric("mcb.fit_s", fitS, "s")
      Engines.foreach(e => layer += Metric(s"$e.build_s", buildS(e), "s"))
      val trees = engines.collect { case (e, d: DistributedIndex) => e -> d }
      trees.foreach { case (e, d) =>
        val (leaves, depth, fill) = d.structureStats
        layer += Metric(s"$e.leaves", leaves, "count")
        layer += Metric(s"$e.depth", depth, "count")
        layer += Metric(s"$e.fill", fill, "series/leaf")
      }
      // Spark and driver figures per query: of searchBatch calls under the
      // plain names, of single search calls under "single_" names.
      for ((call, pre) <- Seq("searchBatch" -> "", "search" -> "single_"); e <- Engines) {
        val p = CallProfile.of(spansOut, s"$e.$call")
        layer += Metric(s"$e.${pre}driver_ms", p.driverMs, "ms")
        layer += Metric(s"$e.${pre}jobs_per_query", p.jobsPerQuery, "jobs/query")
        layer += Metric(s"$e.${pre}sched_ms", p.schedMs, "ms")
        layer += Metric(s"$e.${pre}result_kb", p.resultKb, "KiB")
        layer += Metric(s"$e.${pre}gc_ms", p.gcMs, "ms")
        layer += Metric(s"$e.${pre}task_run_ms", p.taskRunMs, "ms")
        layer += Metric(s"$e.${pre}task_max_ms", p.taskMaxMs, "ms")
        layer += Metric(s"$e.${pre}skew", p.skew, "ratio")
      }

      // repro.core kernels and word-LBD pruning, on the driver
      val spaces: Seq[(String, QuantizedWordSpace)] = trees.map { case (e, d) => e -> d.space }
      val words = spaces.map { case (_, s) =>
        val ws = new Array[Array[Int]](zs.length)
        Exactness.parallel(cores, cores) { c =>
          var i = c
          while (i < zs.length) { ws(i) = s.word(zs(i)); i += cores }
        }
        ws
      }
      val m = math.min(KernelSeries, zs.length)
      val raw = Array.tabulate(m)(i => SeriesGen.series(spec.profile, spec.seed, i.toLong))
      val kernelSpaces = spaces.zip(words).map { case ((e, s), ws) => (e, s, ws.take(m)) }
      Kernels.timings(raw, zs.take(m), poolZ, kth, kernelSpaces)
        .foreach { case (name, v) =>
          layer += Metric(name, v, if (name.endsWith("_us")) "us" else "ns")
        }
      spaces.zip(words).foreach { case ((e, s), ws) =>
        layer += Metric(s"$e.lbd_survivor_frac",
          Kernels.survivorFrac(ws, poolZ.map(s.project), kth, s, cores), "fraction")
      }
      Engines.foreach(e => layer += Metric(s"$e.tie_id_mismatch", gate.ties(e).toDouble, "count"))
      // traced minus untraced wall time per query, per call shape
      Engines.foreach { e =>
        layer += Metric(s"$e.trace_overhead_ms",
          1000.0 / Stats.median(batch.traced(e)) - 1000.0 / Stats.median(batch.plain(e)), "ms")
        layer += Metric(s"$e.single_trace_overhead_ms",
          Stats.median(single.traced(e)) - Stats.median(single.plain(e)), "ms")
      }
      layer += Metric("failed_frac", gate.failedFrac, "fraction")
    }
    engines.foreach(_._2.close())

    val att = gate.totalAttempted
    val fl = gate.totalFailed
    val printed = if (opts.trace) layer.toSeq else e2e.toSeq
    val meta = ListMap(
      "git_sha" -> opts.gitSha,
      "source_sha256" -> opts.sourceSha,
      "workload" -> w.name,
      "dataset" -> spec.name,
      "series" -> spec.count,
      "n" -> spec.len,
      "k" -> k,
      "seed" -> opts.seed,
      "cores" -> cores,
      "default_parallelism" -> sc.defaultParallelism,
      "partitions" -> cfg.partitions,
      "index_config" -> cfg.toString,
      "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}",
      "spark" -> spark.version,
      "trace" -> opts.trace,
      "seconds" -> opts.seconds,
      "load" -> "closed loop, one client",
      "query_pool" -> PoolSize,
      "batch_size" -> BatchSize,
      "setup_reps" -> SetupReps,
      "warmup_search_rounds" -> WarmupRounds,
      // per timed call shape: sample count, median, and the highest tail
      // percentile with at least ten samples beyond it
      "timings" -> ListMap.from(samples.map { case (c, xs) =>
        c -> ListMap("n" -> xs.size, "p50" -> Stats.median(xs),
          "tail" -> Stats.tailPercentile(xs.size).map(p =>
            ListMap("p" -> p, "value" -> Stats.percentile(xs, p))))
      }),
      "run_s" -> secondsSince(runT0),
    )
    val exact = ListMap(
      "attempted" -> gate.attempted.toMap, "failed" -> gate.failed.toMap,
      "tie_id_mismatch" -> gate.ties.toMap)
    def metricsObj(ms: Seq[Metric]) =
      ListMap.from(ms.map(m => m.name -> ListMap("value" -> m.value, "unit" -> m.unit)))
    val tag = s"${w.name}-seed${opts.seed}-trace${if (opts.trace) 1 else 0}"
    val resultFile = opts.out.resolve(s"$tag.json")
    write(resultFile, ListMap(
      "meta" -> meta, "exactness" -> exact, "samples" -> ListMap.from(samples),
      "end_to_end" -> metricsObj(e2e.toSeq), "per_layer" -> metricsObj(layer.toSeq)))
    if (opts.trace) {
      write(opts.out.resolve(s"$tag-spans.json"), spansOut.map { s =>
        ListMap("id" -> s.id, "parent" -> s.parent, "name" -> s.name,
                "start_ms" -> s.startMs, "end_ms" -> s.endMs, "attrs" -> s.attrs)
      })
    }

    printed.foreach(m => println(f"${m.name}%-26s ${m.value}%14.4f ${m.unit}"))
    println(s"result file: $resultFile")
    println(Main.json.writeValueAsString(ListMap(
      "correct" -> (fl == 0 && att > 0),
      "attempted" -> att,
      "failed" -> fl,
      "metrics" -> metricsObj(printed))))
  }

  private def write(p: Path, value: Any): Unit = Main.json.writeValue(p.toFile, value)
}
