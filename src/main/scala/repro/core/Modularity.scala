package repro.core

import repro.graph.LocalGraph
import scala.collection.mutable

/** The paper's goodness functions.
  *
  * All formulas are the *unweighted* versions used in the experiments:
  *   CM(C)  = l_C/|E| − d_C²/(4|E|²)                      (Definition 1)
  *   DM(C)  = l_C/|C| − d_C²/(4|E|·|C|)                   (Definition 2)
  *   Λ_v^S  = −4|E|·k_{v,S} + 2·d_S·d_v − d_v²            (Definition 6)
  *   Θ_v^S  = d_v / k_{v,S}                               (Definition 7)
  * where l_C = internal edges of C, d_C = sum of *global* degrees over C,
  * k_{v,S} = edges from v into S, d_v = global degree.
  */
object Modularity {

  /** Classic modularity of a community from its sufficient statistics. */
  def cm(l: Long, d: Long, mE: Long): Double = {
    require(mE > 0, "empty graph")
    l.toDouble / mE - (d.toDouble * d) / (4.0 * mE * mE)
  }

  /** Density modularity of a community from its sufficient statistics. */
  def dm(l: Long, d: Long, size: Long, mE: Long): Double = {
    require(size > 0 && mE > 0, s"bad args size=$size mE=$mE")
    (l.toDouble - (d.toDouble * d) / (4.0 * mE)) / size
  }

  /** Density modularity gain Λ of removing v from S (larger = better removal). */
  def gain(kvS: Long, dv: Long, dS: Long, mE: Long): Double =
    -4.0 * mE * kvS + 2.0 * dS.toDouble * dv - dv.toDouble * dv

  /** Density ratio Θ of v in S (larger = better removal); ∞ when k_{v,S}=0. */
  def ratio(dv: Int, kvS: Int): Double =
    if (kvS == 0) Double.PositiveInfinity else dv.toDouble / kvS

  /** Generalized modularity density stand-in (Guo/Singh/Bassler 2020-style):
    * CM(C) scaled by the community's internal edge density ρ(C) (χ = 1).
    * Used only as a Fig-12 comparator.
    */
  def gmd(l: Long, d: Long, size: Long, mE: Long): Double = {
    if (size <= 1) return cm(l, d, mE) // density of a singleton is undefined; don't scale
    val rho = 2.0 * l / (size.toDouble * (size - 1))
    cm(l, d, mE) * rho
  }

  /** (l_C, d_C) of a community within g. */
  def stats(g: LocalGraph, members: mutable.BitSet): (Long, Long) =
    (g.edgeCount(members), g.degreeSum(members))

  def dmOf(g: LocalGraph, members: mutable.BitSet): Double = {
    val (l, d) = stats(g, members); dm(l, d, members.size.toLong, g.m)
  }

  def cmOf(g: LocalGraph, members: mutable.BitSet): Double = {
    val (l, d) = stats(g, members); cm(l, d, g.m)
  }

  def gmdOf(g: LocalGraph, members: mutable.BitSet): Double = {
    val (l, d) = stats(g, members); gmd(l, d, members.size.toLong, g.m)
  }
}
