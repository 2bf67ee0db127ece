package dmcsbench

/** Minimal JSON rendering for the result and run-info lines: nested Maps
  * (objects), Iterables (arrays), Strings, Booleans and numbers; NaN and
  * infinities become null.
  */
object Json {
  def render(v: Any): String = v match {
    case s: String => quote(s)
    case b: Boolean => b.toString
    case d: Double => if (d.isNaN || d.isInfinite) "null" else d.toString
    case n: Int => n.toString
    case n: Long => n.toString
    case m: scala.collection.Map[_, _] =>
      m.map { case (k, x) => quote(k.toString) + ": " + render(x) }.mkString("{", ", ", "}")
    case xs: Iterable[_] => xs.map(render).mkString("[", ", ", "]")
    case other => quote(other.toString)
  }

  private def quote(s: String): String = {
    val sb = new StringBuilder("\"")
    s.foreach {
      case '"' => sb.append("\\\"")
      case '\\' => sb.append("\\\\")
      case '\n' => sb.append("\\n")
      case c if c < ' ' => sb.append(f"\\u${c.toInt}%04x")
      case c => sb.append(c)
    }
    sb.append('"').toString
  }
}
