package repro.forecast

import org.scalacheck.{Gen, Prop, Test => Check}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class ForecastSpec extends AnyFunSuite {

  test("fits and extrapolates a pure sine almost exactly") {
    val n = 400
    val full = Array.tabulate(n + 100)(t => math.sin(2 * math.Pi * t / 50.0))
    val model = HarmonicForecaster.fit(full.take(n), Seq(50))
    val pred = HarmonicForecaster.forecast(model, n, 100)
    val err = Metrics.rmse(pred, full.slice(n, n + 100))
    assert(err < 0.01, s"rmse $err")
  }

  test("multi-seasonal fit captures both periods") {
    val n = 800
    val full = Array.tabulate(n + 168)(t =>
      math.sin(2 * math.Pi * t / 24.0) + 0.5 * math.sin(2 * math.Pi * t / 168.0))
    val model = HarmonicForecaster.fit(full.take(n), Seq(24, 168))
    val pred = HarmonicForecaster.forecast(model, n, 168)
    assert(Metrics.rmse(pred, full.slice(n, n + 168)) < 0.05)
  }

  test("missing a true period hurts forecast error (Table 6's mechanism)") {
    val rnd = new Random(1)
    val n = 840
    val full = Array.tabulate(n + 168)(t =>
      math.sin(2 * math.Pi * t / 24.0) + math.sin(2 * math.Pi * t / 168.0) + 0.1 * rnd.nextGaussian())
    val goodM = HarmonicForecaster.fit(full.take(n), Seq(24, 168))
    val badM  = HarmonicForecaster.fit(full.take(n), Seq(24))
    val good = Metrics.rmse(HarmonicForecaster.forecast(goodM, n, 168), full.slice(n, n + 168))
    val bad  = Metrics.rmse(HarmonicForecaster.forecast(badM, n, 168), full.slice(n, n + 168))
    assert(good < bad, s"good $good vs bad $bad")
  }

  test("a false extra period costs little on long trains (regularized dof)") {
    val rnd = new Random(2)
    val n = 840
    val full = Array.tabulate(n + 168)(t => math.sin(2 * math.Pi * t / 24.0) + 0.1 * rnd.nextGaussian())
    val exact = HarmonicForecaster.fit(full.take(n), Seq(24))
    val extra = HarmonicForecaster.fit(full.take(n), Seq(24, 37))
    val e1 = Metrics.rmse(HarmonicForecaster.forecast(exact, n, 168), full.slice(n, n + 168))
    val e2 = Metrics.rmse(HarmonicForecaster.forecast(extra, n, 168), full.slice(n, n + 168))
    assert(e2 < 3 * e1 + 0.2, s"extra-period blowup: $e1 vs $e2")
  }

  test("captures a linear trend") {
    val n = 300
    val full = Array.tabulate(n + 50)(t => 0.05 * t + 2.0)
    val model = HarmonicForecaster.fit(full.take(n), Seq.empty)
    val pred = HarmonicForecaster.forecast(model, n, 50)
    assert(Metrics.rmse(pred, full.slice(n, n + 50)) < 0.05)
  }

  test("invalid periods are dropped, not fit") {
    val model = HarmonicForecaster.fit(Array.tabulate(100)(_.toDouble), Seq(1, 500, 24))
    assert(model.periods == Seq(24))
  }

  test("metrics: rmse and mae on known vectors") {
    val p = Array(1.0, 2.0, 3.0)
    val a = Array(1.0, 4.0, 3.0)
    assert(math.abs(Metrics.rmse(p, a) - math.sqrt(4.0 / 3)) < 1e-12)
    assert(math.abs(Metrics.mae(p, a) - 2.0 / 3) < 1e-12)
  }

  test("metrics reject mismatched lengths") {
    intercept[IllegalArgumentException] { Metrics.rmse(Array(1.0), Array(1.0, 2.0)) }
  }

  test("fit solves the ridge normal equations (AᵀA + 1e-4·n·I)c = Aᵀy to 1e-9 relative residual") {
    val cases = for {
      n     <- Gen.choose(100, 900)
      p     <- Gen.choose(2, n - 1)
      more  <- Gen.listOfN(3, Gen.choose(2, n))
      drop  <- Gen.listOfN(2, Gen.oneOf(-3, 0, 1, n + 1, 2 * n))
      kind  <- Gen.choose(0, 4)
      seed  <- Gen.choose(0L, 100000L)
    } yield {
      val periods = kind match {
        case 0 => Seq.empty[Int]
        case 1 => Seq(p)
        case 2 => Seq(p, p + 1)       // near-duplicate periods, e.g. {24, 25}
        case 3 => p +: more           // several periods
        case _ => drop ++ Seq(p, p)   // periods that fit must drop, and a repeat
      }
      (n, periods, seed)
    }
    val prop = Prop.forAllNoShrink(cases) { case (n, periods, seed) =>
      val rnd = new Random(seed)
      val y   = Array.tabulate(n)(t => 3.0 + 0.01 * t + rnd.nextGaussian())
      val m   = HarmonicForecaster.fit(y, periods)
      val c   = m.coefs.clone()
      c(1) *= n // back to the scaled trend column t/n that fit solves for
      val dim = c.length
      val ata = Array.ofDim[Double](dim, dim)
      val aty = new Array[Double](dim)
      for (t <- 0 until n) {
        val r = Array(1.0, t.toDouble / n) ++ m.periods.zip(m.harmonics).flatMap { case (p, hk) =>
          (1 to hk).flatMap { k =>
            val w = 2 * math.Pi * k * t / p
            Seq(math.cos(w), math.sin(w))
          }
        }
        for (i <- 0 until dim) {
          aty(i) += r(i) * y(t)
          for (j <- 0 until dim) ata(i)(j) += r(i) * r(j)
        }
      }
      val res = Array.tabulate(dim) { i =>
        (0 until dim).map(j => ata(i)(j) * c(j)).sum + 1e-4 * n * c(i) - aty(i)
      }
      def norm(v: Array[Double]) = math.sqrt(v.map(x => x * x).sum)
      val rel = norm(res) / norm(aty)
      (m.periods == periods.distinct.filter(p => p >= 2 && p <= n).sorted) :| s"periods ${m.periods}" &&
        (rel <= 1e-9) :| s"n $n periods $periods: relative residual $rel"
    }
    val params = Check.Parameters.default.withMinSuccessfulTests(100).withWorkers(1)
      .withInitialSeed(Seed(20210621L))
    val res = Check.check(params, prop)
    assert(res.passed, res.status)
  }
}
